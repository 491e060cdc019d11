//! Generator matrices of the Markov-modulated queue (quasi-birth-death process).
//!
//! Following Section 3.1 of the paper, the state of the system is `(i, j)` where `i` is
//! the operational mode and `j` the number of jobs present.  The transition rates are
//! collected in the matrices
//!
//! * `A`  — mode changes that leave the queue untouched (breakdowns and repairs;
//!   with heterogeneous classes, each class acts on its own phase block),
//! * `B = λI` — arrivals (the mode does not change),
//! * `C_j` — departures at queue length `j`: `diag(min(x_i, j)·µ)` for the paper's
//!   homogeneous model, and in general the greedy fastest-first allocation of `j`
//!   jobs to the operative servers (`Σ_c busy_c·µ_c`); either way `C_j` stops
//!   depending on `j` once `j ≥ N`,
//! * `Dᴬ` — the diagonal matrix of row sums of `A`.
//!
//! For `j ≥ N` the balance equations become the constant-coefficient vector difference
//! equation with characteristic matrix polynomial `Q(z) = Q0 + Q1·z + Q2·z²`,
//! `Q0 = B`, `Q1 = A − Dᴬ − B − C`, `Q2 = C` — exactly the quantities exposed here.
//!
//! Of those matrices only `B = λI` depends on the arrival rate; everything else is a
//! function of the server classes (`N`, `µ`, lifecycle per class) alone.
//! [`QbdSkeleton`] captures that λ-independent part so that parameter sweeps varying
//! only λ (the load sweep of Figure 8, for instance) can build it once — typically
//! via [`SolverCache`](crate::SolverCache) — and stamp out a [`QbdMatrices`] per grid
//! point for the price of one number.
//!
//! Every block except `A` is diagonal, and is stored as its diagonal: `Dᴬ` and the
//! `C_j` are `Vec<f64>`, `B` is the scalar `λ`.  The dense coefficients `Q0`, `Q1`,
//! `Q2` are materialised only on request.

use std::sync::Arc;

use urs_linalg::{banded_profitable, BandedMatrix, CaudalFamily, Matrix};

use crate::cache::allocation_bytes;
use crate::config::{ServerClass, ServerLifecycle, SystemConfig};
use crate::modes::{Mode, ModeSpace};
use crate::{ModelError, Result};

/// The λ-independent part of the QBD generator matrices: the mode space, the
/// mode-change matrix `A` with its row-sum diagonal `Dᴬ`, and the level-dependent
/// departure matrices `C_0 … C_N`.
///
/// `A` is the only dense `s × s` block; `Dᴬ` and every `C_j` are diagonal and held
/// as vectors, so a skeleton occupies `O(s² + N·s)` numbers.
///
/// A skeleton is immutable once built and is shared behind an [`Arc`], so one build
/// can serve every arrival rate of a sweep — and every worker thread of a
/// [`ThreadPool`](crate::ThreadPool) — simultaneously.
#[derive(Debug)]
pub struct QbdSkeleton {
    modes: ModeSpace,
    classes: Vec<ServerClass>,
    servers: usize,
    a: Matrix,
    /// The diagonal of `Dᴬ`: the row sums of `A`.
    da: Vec<f64>,
    /// The diagonals of `C_j` for `j = 0..=N`; `C_N` is the repeating-level `C`.  For
    /// the homogeneous model `C_j = diag(min(x_i, j)·µ)`; with server classes the
    /// entries are the greedy fastest-first allocation of `j` jobs to the operative
    /// servers.
    c_levels: Vec<Vec<f64>>,
    /// Mode with the largest stationary environment probability; used by the spectral
    /// solver to pin one balance equation (λ-independent, so computed once here).
    pin_mode: usize,
    /// Union `(kl, ku)` bandwidth of the repeating-level coefficients `Q0`, `Q1`,
    /// `Q2`: only `A` contributes off-diagonal entries, so this is the bandwidth of
    /// `A` — λ-independent, computed once here so every solver can route to the
    /// structured kernels without rescanning.
    q1_bandwidths: (usize, usize),
    /// The logarithms of the symmetrising weights `w = √π` of the mode chain (see
    /// [`log_weights`](Self::log_weights)), or the error that rules them out.
    log_weights: Result<Vec<f64>>,
}

impl QbdSkeleton {
    /// Builds the λ-independent generator structure for `servers` identical servers
    /// with service rate `service_rate` and the given per-server lifecycle.
    ///
    /// # Errors
    ///
    /// Propagates errors from the mode enumeration (`servers == 0`) and class
    /// validation.
    pub fn new(servers: usize, service_rate: f64, lifecycle: &ServerLifecycle) -> Result<Self> {
        Self::for_classes(&[ServerClass::new(servers, service_rate, lifecycle.clone())?])
    }

    /// Builds the λ-independent generator structure for heterogeneous server classes.
    ///
    /// Breakdowns and repairs act within each class's own phase block of the product
    /// mode space; the departure matrices allocate jobs to operative servers *in class
    /// order*, so callers should list classes fastest-first
    /// ([`SystemConfig::heterogeneous`] canonicalises the order automatically).
    ///
    /// # Errors
    ///
    /// Propagates errors from the mode enumeration (empty class list).
    pub fn for_classes(classes: &[ServerClass]) -> Result<Self> {
        let modes = ModeSpace::for_classes(classes)?;
        let s = modes.len();
        let servers: usize = classes.iter().map(ServerClass::count).sum();

        let mut a = Matrix::zeros(s, s);
        for (i, mode) in modes.iter().enumerate() {
            for (class, spec) in classes.iter().enumerate() {
                let lifecycle = spec.lifecycle();
                let op_weights = lifecycle.operative().weights();
                let op_rates = lifecycle.operative().rates();
                let rep_weights = lifecycle.inoperative().weights();
                let rep_rates = lifecycle.inoperative().rates();
                let op_offset = modes.class_operative_range(class).start;
                let inop_offset = modes.class_inoperative_range(class).start;
                // Breakdowns: a class-c server in operative phase j fails and enters
                // inoperative phase k with probability β_k; rate x_j·ξ_j·β_k.
                for (j, &x_j) in
                    // urs-analyze: allow(slice_index, reason = "operative slice range comes from the mode-space enumerator and is in bounds by construction")
                    mode.operative()[modes.class_operative_range(class)].iter().enumerate()
                {
                    if x_j == 0 {
                        continue;
                    }
                    for (k, &beta_k) in rep_weights.iter().enumerate() {
                        let mut operative = mode.operative().to_vec();
                        let mut inoperative = mode.inoperative().to_vec();
                        operative[op_offset + j] -= 1;
                        inoperative[inop_offset + k] += 1;
                        let target = modes.index_of(&Mode::new(operative, inoperative)).ok_or(
                            ModelError::Internal(
                                "breakdown target mode missing from the enumerated space",
                            ),
                        )?;
                        a[(i, target)] += x_j as f64 * op_rates[j] * beta_k;
                    }
                }
                // Repairs: a class-c server in inoperative phase k is repaired and
                // enters operative phase j with probability α_j; rate y_k·η_k·α_j.
                for (k, &y_k) in
                    mode.inoperative()[modes.class_inoperative_range(class)].iter().enumerate()
                {
                    if y_k == 0 {
                        continue;
                    }
                    for (j, &alpha_j) in op_weights.iter().enumerate() {
                        let mut operative = mode.operative().to_vec();
                        let mut inoperative = mode.inoperative().to_vec();
                        operative[op_offset + j] += 1;
                        inoperative[inop_offset + k] -= 1;
                        let target = modes.index_of(&Mode::new(operative, inoperative)).ok_or(
                            ModelError::Internal(
                                "repair target mode missing from the enumerated space",
                            ),
                        )?;
                        a[(i, target)] += y_k as f64 * rep_rates[k] * alpha_j;
                    }
                }
            }
        }
        let da = a.row_sums();
        let c_levels: Vec<Vec<f64>> = (0..=servers)
            .map(|level| (0..s).map(|i| departure_rate(&modes, classes, i, level)).collect())
            .collect();
        let q1_bandwidths = BandedMatrix::bandwidths_of(&a);
        let pin_mode = modes
            .stationary_distribution_classes(classes)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let log_weights = reversible_log_weights(&a);
        Ok(QbdSkeleton {
            modes,
            classes: classes.to_vec(),
            servers,
            a,
            da,
            c_levels,
            pin_mode,
            q1_bandwidths,
            log_weights,
        })
    }

    /// The mode space underlying the matrices.
    pub fn modes(&self) -> &ModeSpace {
        &self.modes
    }

    /// The server classes the skeleton was built from (one for the paper's model).
    pub fn classes(&self) -> &[ServerClass] {
        &self.classes
    }

    /// Number of operational modes `s`.
    pub fn order(&self) -> usize {
        self.modes.len()
    }

    /// Heap footprint the [`SolverCache`](crate::SolverCache) charges for this
    /// skeleton: the struct, the mode space, the class list, the dense `A` and the
    /// diagonal blocks.
    pub(crate) fn heap_bytes(&self) -> usize {
        size_of::<Self>()
            + self.modes.heap_bytes()
            + allocation_bytes(&self.classes)
            + allocation_bytes(self.a.as_slice())
            + allocation_bytes(&self.da)
            + allocation_bytes(&self.c_levels)
            + self.c_levels.iter().map(|c| allocation_bytes(c)).sum::<usize>()
            + self.log_weights.as_ref().map_or(0, |w| allocation_bytes(w))
    }

    /// Number of servers `N`.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Service rate `µ` of one operative server of the fastest class (the only class
    /// for the homogeneous model).
    pub fn service_rate(&self) -> f64 {
        self.classes[0].service_rate()
    }

    /// Mode-change rate matrix `A` (zero diagonal).
    pub fn a(&self) -> &Matrix {
        &self.a
    }

    /// The diagonal of `Dᴬ`: the row sums of `A`.
    pub fn da(&self) -> &[f64] {
        &self.da
    }

    /// The diagonal of the departure matrix `C` for levels `j ≥ N`.
    pub fn c(&self) -> &[f64] {
        self.c_level(self.servers)
    }

    /// The diagonal of the level-dependent departure matrix `C_j`: `min(x_i, j)·µ`
    /// for a single class, the greedy fastest-first allocation rate in general.
    ///
    /// For `j ≥ N` this equals [`c`](Self::c); `C_0` is zero.
    pub fn c_level(&self, level: usize) -> &[f64] {
        self.c_levels.get(level.min(self.servers)).map(Vec::as_slice).unwrap_or_default()
    }

    /// Index of the mode with the largest stationary environment probability.
    pub fn pin_mode(&self) -> usize {
        self.pin_mode
    }

    /// Union `(kl, ku)` bandwidth of the characteristic coefficients `Q0`, `Q1`,
    /// `Q2` in the skeleton's mode ordering.  `Q0 = λI` and `Q2 = C` are diagonal,
    /// so this is the bandwidth of `Q1` — in the homogeneous model a breakdown or
    /// repair moves at most one server between adjacent phase counts, giving
    /// `kl = ku = O(N)` against an order of `s = O(N²)`.
    pub fn q1_bandwidths(&self) -> (usize, usize) {
        self.q1_bandwidths
    }

    /// The spectrum-slicing family `−K(z) = −A + diag(Dᴬ + (1 − z)(C − λ/z))` of
    /// the characteristic polynomial at arrival rate `lambda`, on the band of `A`
    /// (see [`CaudalFamily`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Linalg`] for a non-positive or non-finite `lambda`.
    pub fn caudal_family(&self, lambda: f64) -> Result<CaudalFamily> {
        let (kl, ku) = self.q1_bandwidths;
        let a = BandedMatrix::from_fn(self.order(), kl, ku, |i, j| self.a.get(i, j).unwrap_or(0.0));
        Ok(CaudalFamily::new(&a, &self.da, self.c(), &vec![lambda; self.order()])?)
    }

    /// The logarithms `ln w` of the weights `w = √π` that symmetrise the mode
    /// chain, largest 0: with `W = diag(w)`, `W·A·W⁻¹` has the symmetric
    /// off-diagonal `S_ij = √(A_ij·A_ji)` (see
    /// [`symmetric_generator`](Self::symmetric_generator)).  They are kept as
    /// logarithms because the stationary distribution of very reliable servers in
    /// a large fleet spans more decades than a floating-point number: only weight
    /// ratios `e^(ln w_j − ln w_i)` are ever formed from them.
    ///
    /// Each server's phase chain is a star or a complete bipartite graph with
    /// product-form rates, so Kolmogorov's criterion makes it reversible, and the
    /// lumped product of independent servers stays so.  The weights are λ-independent
    /// and computed once, when the skeleton is built.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidParameter`] when the chain is reducible or not
    /// reversible, which rules out the symmetrised frame.
    pub fn log_weights(&self) -> Result<&[f64]> {
        self.log_weights.as_deref().map_err(Clone::clone)
    }

    /// The symmetrised diagonal-plus-mode-change matrix `diag(Dᴬ + shift) − S`,
    /// `S_ij = √(A_ij·A_ji)` — similar, through `W = diag(w)`, to
    /// `Dᴬ + diag(shift) − A`.  The response-time transform diagonalises it with
    /// `shift = C_j`; the cyclic reduction of the matrix-geometric solver factorises
    /// it with `shift = C + λ` (that is `−Q1`).
    ///
    /// # Errors
    ///
    /// [`ModelError::Internal`] unless `shift` has one entry per mode.
    pub fn symmetric_generator(&self, shift: &[f64]) -> Result<Matrix> {
        let order = self.order();
        if shift.len() != order {
            return Err(ModelError::Internal("diagonal shift does not match the mode count"));
        }
        let a = &self.a;
        let rate = |i: usize, j: usize| a.get(i, j).unwrap_or(0.0);
        Ok(Matrix::from_fn(order, order, |i, j| match (self.da.get(i), shift.get(i)) {
            (Some(d), Some(c)) if i == j => d + c - rate(i, i),
            _ => -(rate(i, j) * rate(j, i)).sqrt(),
        }))
    }

    /// `true` when the solvers should route repeating-level factorisations through
    /// the packed banded kernels (see [`urs_linalg::banded_profitable`]): the
    /// bandwidth reported by [`q1_bandwidths`](Self::q1_bandwidths) clears the
    /// measured crossover for this order.
    pub fn banded_recommended(&self) -> bool {
        let (kl, ku) = self.q1_bandwidths;
        banded_profitable(self.order(), kl, ku)
    }
}

/// Total departure rate in `mode` with `level` jobs present: jobs are allocated to
/// operative servers greedily in class order (classes are fastest-first in canonical
/// configurations), so the rate is `Σ_c busy_c·µ_c` with `busy_c` the greedy
/// allocation.  For a single class this reduces to the paper's `min(x_i, j)·µ`.
fn departure_rate(modes: &ModeSpace, classes: &[ServerClass], mode: usize, level: usize) -> f64 {
    let mut remaining = level;
    let mut rate = 0.0;
    for (class, spec) in classes.iter().enumerate() {
        if remaining == 0 {
            break;
        }
        let busy = modes.class_operative_count(mode, class).min(remaining);
        rate += busy as f64 * spec.service_rate();
        remaining -= busy;
    }
    rate
}

/// The logarithms of the symmetrising weights `w = √π` of the mode chain `A`,
/// largest 0: detailed balance `π_j = π_i·A_ij/A_ji` along a breadth-first
/// spanning tree from mode 0, then verified on every transition.  The tree runs on
/// `ln w`, so no product of rate ratios can overflow.
///
/// # Errors
///
/// [`ModelError::InvalidParameter`] when the chain is reducible or not reversible —
/// a transition without its reverse, or a cycle violating Kolmogorov's criterion.
pub(crate) fn reversible_log_weights(a: &Matrix) -> Result<Vec<f64>> {
    let order = a.rows();
    let rate = |i: usize, j: usize| if i == j { 0.0 } else { a.get(i, j).unwrap_or(0.0) };
    let invalid = |value: f64| ModelError::InvalidParameter {
        name: "mode_chain",
        value,
        constraint: "the symmetrised solvers need a reversible, irreducible mode chain",
    };
    // Transitions only link modes within the band of `A`.
    let (kl, ku) = BandedMatrix::bandwidths_of(a);
    let reach = kl.max(ku);
    let band = |i: usize| i.saturating_sub(reach)..(i + reach + 1).min(order);
    // `ln w` along the tree rooted at mode 0; `None` marks a mode not reached yet.
    let mut logs: Vec<Option<f64>> = (0..order).map(|i| (i == 0).then_some(0.0)).collect();
    let mut queue = std::collections::VecDeque::from([0usize]);
    while let Some(i) = queue.pop_front() {
        let log_i = logs.get(i).copied().flatten().unwrap_or(0.0);
        for j in band(i) {
            let (forward, back) = (rate(i, j), rate(j, i));
            if let Some(log_j) = logs.get_mut(j).filter(|w| forward > 0.0 && w.is_none()) {
                if back <= 0.0 {
                    return Err(invalid(forward));
                }
                *log_j = Some(log_i + 0.5 * (forward.ln() - back.ln()));
                queue.push_back(j);
            }
        }
    }
    let logs: Vec<f64> = logs.into_iter().collect::<Option<_>>().ok_or_else(|| invalid(0.0))?;
    for (i, log_i) in logs.iter().enumerate() {
        for (j, log_j) in logs.iter().enumerate().take(i).skip(i.saturating_sub(reach)) {
            let (forward, back) = (rate(i, j), rate(j, i));
            if forward <= 0.0 && back <= 0.0 {
                continue;
            }
            // ln(π_i·A_ij / π_j·A_ji); a missing reverse makes it infinite.
            let gap = (forward / back).ln() - 2.0 * (log_j - log_i);
            if gap.abs() > 1e-8 {
                return Err(invalid(-(-gap.abs()).exp_m1()));
            }
        }
    }
    let largest = logs.iter().fold(f64::NEG_INFINITY, |m, l| m.max(*l));
    Ok(logs.into_iter().map(|l| l - largest).collect())
}

/// The generator matrices of the queue's quasi-birth-death representation: a shared
/// [`QbdSkeleton`] plus the arrival rate `λ` of the arrival matrix `B = λI`.
///
/// # Example
///
/// ```
/// use urs_core::{QbdMatrices, ServerLifecycle, SystemConfig};
///
/// # fn main() -> Result<(), urs_core::ModelError> {
/// let config = SystemConfig::new(2, 1.0, 1.0, ServerLifecycle::paper_fitted()?)?;
/// let qbd = QbdMatrices::new(&config)?;
/// assert_eq!(qbd.a().rows(), 6); // s = 6 modes for N = 2, n = 2, m = 1
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QbdMatrices {
    skeleton: Arc<QbdSkeleton>,
    arrival_rate: f64,
}

impl QbdMatrices {
    /// Builds the generator matrices for a configuration.
    ///
    /// # Errors
    ///
    /// Propagates errors from the mode enumeration; the configuration itself was already
    /// validated at construction.
    pub fn new(config: &SystemConfig) -> Result<Self> {
        let skeleton = QbdSkeleton::for_classes(config.classes())?;
        Ok(QbdMatrices::with_skeleton(Arc::new(skeleton), config.arrival_rate()))
    }

    /// Stamps out the matrices for a given arrival rate from a prebuilt skeleton.
    ///
    /// This is the cheap path used by [`SolverCache`](crate::SolverCache): nothing
    /// is allocated.
    pub fn with_skeleton(skeleton: Arc<QbdSkeleton>, arrival_rate: f64) -> Self {
        QbdMatrices { skeleton, arrival_rate }
    }

    /// The λ-independent skeleton the matrices were stamped from.
    pub fn skeleton(&self) -> &Arc<QbdSkeleton> {
        &self.skeleton
    }

    /// The mode space underlying the matrices.
    pub fn modes(&self) -> &ModeSpace {
        self.skeleton.modes()
    }

    /// Number of operational modes `s`.
    pub fn order(&self) -> usize {
        self.skeleton.order()
    }

    /// Number of servers `N`.
    pub fn servers(&self) -> usize {
        self.skeleton.servers()
    }

    /// Arrival rate `λ`, the diagonal of `B = λI`.
    pub fn arrival_rate(&self) -> f64 {
        self.arrival_rate
    }

    /// Mode-change rate matrix `A` (zero diagonal).
    pub fn a(&self) -> &Matrix {
        self.skeleton.a()
    }

    /// The diagonal of `Dᴬ`: the row sums of `A`.
    pub fn da(&self) -> &[f64] {
        self.skeleton.da()
    }

    /// The diagonal of the departure matrix `C` for levels `j ≥ N`.
    pub fn c(&self) -> &[f64] {
        self.skeleton.c()
    }

    /// The diagonal of the level-dependent departure matrix `C_j` (see
    /// [`QbdSkeleton::c_level`]).
    pub fn c_level(&self, level: usize) -> &[f64] {
        self.skeleton.c_level(level)
    }

    /// `Q0 = B = λI`, the coefficient of `z⁰` in the characteristic matrix polynomial.
    pub fn q0(&self) -> Matrix {
        Matrix::from_diagonal(&vec![self.arrival_rate; self.order()])
    }

    /// `Q1 = A − Dᴬ − B − C`, the coefficient of `z¹`.
    pub fn q1(&self) -> Matrix {
        let lambda = self.arrival_rate;
        self.a_with_diagonal(|a, da, c| ((a - da) - c) - lambda)
    }

    /// `Q2 = C`, the coefficient of `z²`.
    pub fn q2(&self) -> Matrix {
        Matrix::from_diagonal(self.c())
    }

    /// Union `(kl, ku)` bandwidth of `Q0`/`Q1`/`Q2` (see
    /// [`QbdSkeleton::q1_bandwidths`]).
    pub fn q1_bandwidths(&self) -> (usize, usize) {
        self.skeleton.q1_bandwidths()
    }

    /// `true` when repeating-level factorisations should use the packed banded
    /// kernels (see [`QbdSkeleton::banded_recommended`]).
    pub fn banded_recommended(&self) -> bool {
        self.skeleton.banded_recommended()
    }

    /// The generator of the environment process alone (`A − Dᴬ`); its stationary vector
    /// is the multinomial distribution exposed by
    /// [`ModeSpace::stationary_distribution`].
    pub fn environment_generator(&self) -> Matrix {
        self.a_with_diagonal(|a, da, _| a - da)
    }

    /// `A` with each diagonal entry `a_ii` replaced by `f(a_ii, Dᴬ_ii, C_ii)`: the
    /// generator blocks differ from `A` only on the diagonal.
    fn a_with_diagonal(&self, f: impl Fn(f64, f64, f64) -> f64) -> Matrix {
        let mut m = self.a().clone();
        let rows = m.as_mut_slice().chunks_exact_mut(self.order());
        for (i, (row, (da, c))) in rows.zip(self.da().iter().zip(self.c())).enumerate() {
            if let Some(x) = row.get_mut(i) {
                *x = f(*x, *da, *c);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerLifecycle;
    use urs_linalg::LuDecomposition;

    fn paper_config(servers: usize, lambda: f64) -> SystemConfig {
        SystemConfig::new(servers, lambda, 1.0, ServerLifecycle::paper_fitted().unwrap()).unwrap()
    }

    #[test]
    fn matrix_dimensions_and_diagonals() {
        let qbd = QbdMatrices::new(&paper_config(3, 2.0)).unwrap();
        let s = qbd.order();
        assert_eq!(s, 10);
        assert_eq!(qbd.a().shape(), (s, s));
        // A has zero diagonal.
        for i in 0..s {
            assert_eq!(qbd.a()[(i, i)], 0.0);
        }
        // Q0 = B = λI.
        assert_eq!(qbd.arrival_rate(), 2.0);
        assert!(qbd.q0().approx_eq(&Matrix::identity(s).scale(2.0), 0.0));
        // DA is the diagonal of row sums.
        assert_eq!(qbd.da().len(), s);
        for (da, sum) in qbd.da().iter().zip(qbd.a().row_sums()) {
            assert!((da - sum).abs() < 1e-12);
        }
    }

    #[test]
    fn paper_example_matrix_a_structure() {
        // Paper, Section 3.1 example: N = 2, n = 2, m = 1.  With η the repair rate and
        // α the operative-phase entry probabilities, the mode with 2 inoperative servers
        // moves to (1 op in phase 1, 1 inop) at rate 2ηα₁ and to (1 op in phase 2, 1
        // inop) at rate 2ηα₂.
        let config = paper_config(2, 1.0);
        let lc = config.lifecycle().clone();
        let qbd = QbdMatrices::new(&config).unwrap();
        let modes = qbd.modes();
        let both_down = modes.index_of(&Mode::new(vec![0, 0], vec![2])).unwrap();
        let one_up_phase1 = modes.index_of(&Mode::new(vec![1, 0], vec![1])).unwrap();
        let one_up_phase2 = modes.index_of(&Mode::new(vec![0, 1], vec![1])).unwrap();
        let eta = lc.inoperative().rates()[0];
        let alpha = lc.operative().weights();
        assert!((qbd.a()[(both_down, one_up_phase1)] - 2.0 * eta * alpha[0]).abs() < 1e-12);
        assert!((qbd.a()[(both_down, one_up_phase2)] - 2.0 * eta * alpha[1]).abs() < 1e-12);
        // Breakdown from (2 op phase 1) to (1 op phase 1, 1 inop) at rate 2ξ₁.
        let two_up_phase1 = modes.index_of(&Mode::new(vec![2, 0], vec![0])).unwrap();
        let xi = lc.operative().rates();
        assert!((qbd.a()[(two_up_phase1, one_up_phase1)] - 2.0 * xi[0]).abs() < 1e-12);
        // No direct transition between (2 op phase 1) and (2 op phase 2).
        let two_up_phase2 = modes.index_of(&Mode::new(vec![0, 2], vec![0])).unwrap();
        assert_eq!(qbd.a()[(two_up_phase1, two_up_phase2)], 0.0);
    }

    #[test]
    fn departure_matrices_cap_at_level_and_at_servers() {
        let qbd = QbdMatrices::new(&paper_config(3, 2.0)).unwrap();
        let s = qbd.order();
        // C_0 = 0.
        assert!(qbd.c_level(0).iter().all(|&c| c == 0.0));
        // C_j for j >= N equals C.
        assert_eq!(qbd.c_level(3), qbd.c());
        assert_eq!(qbd.c_level(7), qbd.c());
        // C_1 is capped at one server's worth of service.
        for i in 0..s {
            let expected = qbd.modes().operative_count(i).min(1) as f64;
            assert!((qbd.c_level(1)[i] - expected).abs() < 1e-12);
        }
        // C has min(x_i, N)·µ = x_i·µ on the diagonal.
        for i in 0..s {
            assert!((qbd.c()[i] - qbd.modes().operative_count(i) as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn characteristic_polynomial_coefficients_are_consistent() {
        let qbd = QbdMatrices::new(&paper_config(2, 1.5)).unwrap();
        let q1 = qbd.q1();
        let s = qbd.order();
        // Q(1)·1 = (Q0 + Q1 + Q2)·1 must be the zero vector: the generator of the
        // repeating portion is conservative.
        let sum = &(&qbd.q0() + &q1) + &qbd.q2();
        for i in 0..s {
            assert!(sum.row(i).iter().sum::<f64>().abs() < 1e-10, "row {i} not conservative");
        }
        // Q1 = A − DA − B − C: A off the diagonal, −(DA + λ + C) on it.
        for i in 0..s {
            for j in 0..s {
                let expected =
                    if i == j { -(qbd.da()[i] + 1.5 + qbd.c()[i]) } else { qbd.a()[(i, j)] };
                assert!((q1[(i, j)] - expected).abs() < 1e-12, "Q1[{i}, {j}]");
            }
        }
    }

    #[test]
    fn coefficients_rebuild_bitwise_from_the_diagonal_blocks() {
        // Q1 = A − Dᴬ − C − B and the environment generator A − Dᴬ, assembled from
        // dense diagonal matrices: the vector-backed accessors must agree bit for bit.
        let config = SystemConfig::heterogeneous(
            2.5,
            vec![
                ServerClass::new(2, 1.5, ServerLifecycle::paper_fitted().unwrap()).unwrap(),
                ServerClass::new(2, 1.0, ServerLifecycle::exponential(0.1, 1.0).unwrap()).unwrap(),
            ],
        )
        .unwrap();
        let qbd = QbdMatrices::new(&config).unwrap();
        let s = qbd.order();
        assert_eq!(qbd.da().len(), s);
        for level in 0..=qbd.servers() + 1 {
            assert_eq!(qbd.c_level(level).len(), s);
        }
        let da = Matrix::from_diagonal(qbd.da());
        let b = Matrix::identity(s).scale(2.5);
        let dense_q1 = &(&(qbd.a() - &da) - &Matrix::from_diagonal(qbd.c())) - &b;
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&qbd.q1()), bits(&dense_q1));
        assert_eq!(bits(&qbd.q0()), bits(&b));
        assert_eq!(bits(&qbd.environment_generator()), bits(&(qbd.a() - &da)));
    }

    #[test]
    fn bandwidth_report_matches_actual_structure() {
        // Small paper configuration: band nearly fills the matrix, dense recommended.
        let qbd = QbdMatrices::new(&paper_config(3, 2.0)).unwrap();
        let (kl, ku) = qbd.q1_bandwidths();
        assert_eq!((kl, ku), BandedMatrix::bandwidths_of(&qbd.q1()));
        assert!(!qbd.banded_recommended());
        // Q0 and Q2 are diagonal, so the union bandwidth is Q1's own.
        assert_eq!(BandedMatrix::bandwidths_of(&qbd.q0()), (0, 0));
        assert_eq!(BandedMatrix::bandwidths_of(&qbd.q2()), (0, 0));

        // Larger order: the band is narrow relative to s and the report flips.
        let qbd = QbdMatrices::new(&paper_config(8, 2.0)).unwrap();
        let (kl, ku) = qbd.q1_bandwidths();
        assert_eq!((kl, ku), BandedMatrix::bandwidths_of(&qbd.q1()));
        let bandwidth = kl + ku + 1;
        assert!(bandwidth <= qbd.order() / 2);
        assert!(qbd.banded_recommended());
    }

    /// The mode chain is reversible: with the product-form stationary distribution
    /// `π`, every transition balances its reverse, `π_i·A_ij = π_j·A_ji`.  The
    /// response-time transform symmetrises its resolvents on exactly this property.
    #[test]
    fn mode_chain_satisfies_detailed_balance() {
        use crate::config::ServerClass;
        use urs_dist::HyperExponential;
        let paper = ServerLifecycle::paper_fitted().unwrap();
        let h2h2 = ServerLifecycle::new(
            HyperExponential::new(&[0.7246, 0.2754], &[0.1663, 0.0091]).unwrap(),
            HyperExponential::new(&[0.9303, 0.0697], &[25.0043, 1.6346]).unwrap(),
        );
        let exponential = ServerLifecycle::exponential(0.1, 1.0).unwrap();
        let fleets = [
            vec![ServerClass::new(5, 1.0, exponential.clone()).unwrap()],
            vec![ServerClass::new(6, 1.0, paper.clone()).unwrap()],
            vec![ServerClass::new(4, 1.0, h2h2).unwrap()],
            vec![
                ServerClass::new(2, 1.5, paper).unwrap(),
                ServerClass::new(3, 1.0, exponential).unwrap(),
            ],
        ];
        for classes in fleets {
            let skeleton = QbdSkeleton::for_classes(&classes).unwrap();
            let pi = skeleton.modes().stationary_distribution_classes(&classes);
            let a = skeleton.a();
            let s = skeleton.order();
            for i in 0..s {
                for j in 0..i {
                    let (flow, reverse) = (pi[i] * a[(i, j)], pi[j] * a[(j, i)]);
                    let gap = (flow - reverse).abs();
                    assert!(
                        gap <= 1e-10 * flow.max(reverse),
                        "{} classes, modes ({i}, {j}): {flow:e} vs {reverse:e}",
                        classes.len()
                    );
                }
            }
        }
    }

    #[test]
    fn environment_generator_stationary_distribution_matches_product_form() {
        let config = paper_config(4, 1.0);
        let qbd = QbdMatrices::new(&config).unwrap();
        let s = qbd.order();
        // Solve π (A - DA) = 0 with normalisation by replacing one column.
        let gen = qbd.environment_generator();
        let mut system = Matrix::zeros(s, s);
        for i in 0..s {
            for j in 0..s {
                system[(j, i)] = gen[(i, j)]; // transpose
            }
        }
        // Replace the first equation with normalisation Σ π_i = 1.
        for j in 0..s {
            system[(0, j)] = 1.0;
        }
        let mut rhs = vec![0.0; s];
        rhs[0] = 1.0;
        let pi = LuDecomposition::new(&system).unwrap().solve(&rhs).unwrap();
        let expected = qbd.modes().stationary_distribution(config.lifecycle());
        for (p, e) in pi.iter().zip(&expected) {
            assert!((p - e).abs() < 1e-9, "stationary mismatch: {p} vs {e}");
        }
    }

    #[test]
    fn total_breakdown_rate_balances_total_repair_rate_in_equilibrium() {
        // In the stationary environment, the probability flow from operative to
        // inoperative states must balance the reverse flow.
        let config = paper_config(5, 1.0);
        let qbd = QbdMatrices::new(&config).unwrap();
        let lc = config.lifecycle();
        let pi = qbd.modes().stationary_distribution(lc);
        let mut breakdown_flow = 0.0;
        let mut repair_flow = 0.0;
        for (i, mode) in qbd.modes().iter().enumerate() {
            for (j, &x) in mode.operative().iter().enumerate() {
                breakdown_flow += pi[i] * x as f64 * lc.operative().rates()[j];
            }
            for (k, &y) in mode.inoperative().iter().enumerate() {
                repair_flow += pi[i] * y as f64 * lc.inoperative().rates()[k];
            }
        }
        assert!((breakdown_flow - repair_flow).abs() < 1e-9);
    }
}
