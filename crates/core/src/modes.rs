//! Enumeration of the operational modes of the Markovian environment.
//!
//! The environment state of the queue records how many servers sit in each operative
//! phase and in each inoperative phase: a *mode* is a pair of occupancy vectors
//! `(X, Y)` with `x₁+…+x_n + y₁+…+y_m = N`.  The number of modes is
//! `s = C(N+n+m−1, n+m−1)` (paper, equation 12); this module enumerates them in a
//! deterministic order, maps between modes and indices, and computes the stationary
//! distribution of the environment (which is independent of the queue and has a simple
//! multinomial product form — a useful cross-check for the solvers).

use std::collections::BTreeMap;
use std::ops::Range;

use crate::cache::ALLOCATION_HEADER;
use crate::config::{binomial, ServerClass, ServerLifecycle};
use crate::error::ModelError;
use crate::Result;

/// One operational mode: the numbers of servers in each operative and inoperative phase.
///
/// # Example
///
/// ```
/// use urs_core::{Mode, ModeSpace, ServerLifecycle};
///
/// # fn main() -> Result<(), urs_core::ModelError> {
/// let lifecycle = ServerLifecycle::paper_fitted()?;
/// let modes = ModeSpace::new(2, &lifecycle)?;
/// assert_eq!(modes.len(), 6); // (N+2)(N+1)/2 for n = 2, m = 1
/// let all_operative_phase1 = Mode::new(vec![2, 0], vec![0]);
/// assert!(modes.index_of(&all_operative_phase1).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Mode {
    operative: Vec<usize>,
    inoperative: Vec<usize>,
}

impl Mode {
    /// Creates a mode from explicit occupancy vectors.
    pub fn new(operative: Vec<usize>, inoperative: Vec<usize>) -> Self {
        Mode { operative, inoperative }
    }

    /// Occupancies of the operative phases (`x_j`).
    pub fn operative(&self) -> &[usize] {
        &self.operative
    }

    /// Occupancies of the inoperative phases (`y_k`).
    pub fn inoperative(&self) -> &[usize] {
        &self.inoperative
    }

    /// Total number of operative servers `x = Σ_j x_j`.
    pub fn operative_count(&self) -> usize {
        self.operative.iter().sum()
    }

    /// Total number of inoperative servers `y = Σ_k y_k`.
    pub fn inoperative_count(&self) -> usize {
        self.inoperative.iter().sum()
    }

    /// Total number of servers represented by the mode.
    pub fn total_servers(&self) -> usize {
        self.operative_count() + self.inoperative_count()
    }
}

/// Phase-structure of one server class inside a [`ModeSpace`]: its server count, its
/// phase counts and the offsets of its phase block in the concatenated occupancy
/// vectors of a [`Mode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClassLayout {
    count: usize,
    operative_phases: usize,
    inoperative_phases: usize,
    operative_offset: usize,
    inoperative_offset: usize,
}

impl ClassLayout {
    fn total_phases(&self) -> usize {
        self.operative_phases + self.inoperative_phases
    }
}

/// The full set of operational modes for a system of `N` servers.
///
/// For the paper's homogeneous model the occupancy vectors range over the `n`
/// operative and `m` inoperative phases of the single lifecycle.  For heterogeneous
/// server classes ([`ModeSpace::for_classes`]) each class contributes its own phase
/// block, a mode is the concatenation of per-class occupancy vectors, and the space is
/// the cartesian product of the per-class spaces in a deterministic order (class 0
/// varies slowest).
#[derive(Debug, Clone)]
pub struct ModeSpace {
    servers: usize,
    operative_phases: usize,
    inoperative_phases: usize,
    layouts: Vec<ClassLayout>,
    modes: Vec<Mode>,
    index: BTreeMap<Mode, usize>,
}

impl ModeSpace {
    /// Enumerates every mode of a system with `servers` servers whose phase structure is
    /// taken from `lifecycle`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if `servers == 0`.
    pub fn new(servers: usize, lifecycle: &ServerLifecycle) -> Result<Self> {
        Self::from_structure(&[(
            servers,
            lifecycle.operative_phases(),
            lifecycle.inoperative_phases(),
        )])
    }

    /// Enumerates the product mode space of heterogeneous server classes, in the order
    /// of the given class list (class 0 varies slowest).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if `classes` is empty.
    pub fn for_classes(classes: &[ServerClass]) -> Result<Self> {
        if classes.is_empty() {
            return Err(ModelError::InvalidParameter {
                name: "classes",
                value: 0.0,
                constraint: "at least one server class is required",
            });
        }
        let structure: Vec<(usize, usize, usize)> = classes
            .iter()
            .map(|c| {
                (c.count(), c.lifecycle().operative_phases(), c.lifecycle().inoperative_phases())
            })
            .collect();
        Self::from_structure(&structure)
    }

    /// Builds the space from `(count, operative_phases, inoperative_phases)` triples.
    fn from_structure(structure: &[(usize, usize, usize)]) -> Result<Self> {
        let servers: usize = structure.iter().map(|&(count, _, _)| count).sum();
        if servers == 0 {
            return Err(ModelError::InvalidParameter {
                name: "servers",
                value: 0.0,
                constraint: "must be at least 1",
            });
        }
        let mut layouts = Vec::with_capacity(structure.len());
        let (mut op_offset, mut inop_offset) = (0usize, 0usize);
        for &(count, n, m) in structure {
            layouts.push(ClassLayout {
                count,
                operative_phases: n,
                inoperative_phases: m,
                operative_offset: op_offset,
                inoperative_offset: inop_offset,
            });
            op_offset += n;
            inop_offset += m;
        }
        // Per-class composition lists, each in the deterministic lexicographic order of
        // `enumerate_compositions`.
        let per_class: Vec<Vec<Vec<usize>>> = layouts
            .iter()
            .map(|l| {
                let mut list = Vec::with_capacity(binomial(
                    l.count + l.total_phases() - 1,
                    l.total_phases() - 1,
                ));
                let mut current = vec![0usize; l.total_phases()];
                enumerate_compositions(l.count, 0, &mut current, &mut |c| list.push(c.to_vec()));
                list
            })
            .collect();
        // Cartesian product, class 0 outermost (slowest varying).
        let total: usize = per_class.iter().map(Vec::len).product();
        let mut modes = Vec::with_capacity(total);
        let mut cursor = vec![0usize; layouts.len()];
        loop {
            let mut operative = Vec::with_capacity(op_offset);
            let mut inoperative = Vec::with_capacity(inop_offset);
            for (layout, (choices, &pick)) in
                layouts.iter().zip(per_class.iter().zip(cursor.iter()))
            {
                let composition = &choices[pick];
                operative.extend_from_slice(&composition[..layout.operative_phases]);
                inoperative.extend_from_slice(&composition[layout.operative_phases..]);
            }
            modes.push(Mode { operative, inoperative });
            // Odometer increment, last class fastest.
            let mut position = layouts.len();
            loop {
                if position == 0 {
                    break;
                }
                position -= 1;
                cursor[position] += 1;
                if cursor[position] < per_class[position].len() {
                    break;
                }
                cursor[position] = 0;
            }
            if cursor.iter().all(|&c| c == 0) {
                break;
            }
        }
        let index = modes.iter().cloned().enumerate().map(|(i, mode)| (mode, i)).collect();
        Ok(ModeSpace {
            servers,
            operative_phases: op_offset,
            inoperative_phases: inop_offset,
            layouts,
            modes,
            index,
        })
    }

    /// Number of modes `s`.
    pub fn len(&self) -> usize {
        self.modes.len()
    }

    /// Estimated heap footprint: each mode and its two occupancy vectors, held
    /// once in the enumeration and once as a key of the index map, plus the index
    /// map's slot, counted twice because B-tree nodes run about half full.
    pub(crate) fn heap_bytes(&self) -> usize {
        let phases = self.operative_phases + self.inoperative_phases;
        let per_copy = size_of::<Mode>() + phases * size_of::<usize>() + 2 * ALLOCATION_HEADER;
        let index_slot = 2 * (size_of::<Mode>() + size_of::<usize>());
        self.modes.len() * (2 * per_copy + index_slot)
    }

    /// Returns `true` if the space has no modes (never the case after construction).
    pub fn is_empty(&self) -> bool {
        self.modes.is_empty()
    }

    /// Number of servers `N`.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Number of operative phases `n` (summed over classes for heterogeneous spaces).
    pub fn operative_phases(&self) -> usize {
        self.operative_phases
    }

    /// Number of inoperative phases `m` (summed over classes for heterogeneous spaces).
    pub fn inoperative_phases(&self) -> usize {
        self.inoperative_phases
    }

    /// Number of server classes (1 for the paper's homogeneous model).
    pub fn class_count(&self) -> usize {
        self.layouts.len()
    }

    /// Number of servers in class `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class >= self.class_count()`.
    pub fn class_servers(&self, class: usize) -> usize {
        self.layouts[class].count
    }

    /// Range of class `class`'s block inside [`Mode::operative`].
    ///
    /// # Panics
    ///
    /// Panics if `class >= self.class_count()`.
    pub fn class_operative_range(&self, class: usize) -> Range<usize> {
        let l = &self.layouts[class];
        l.operative_offset..l.operative_offset + l.operative_phases
    }

    /// Range of class `class`'s block inside [`Mode::inoperative`].
    ///
    /// # Panics
    ///
    /// Panics if `class >= self.class_count()`.
    pub fn class_inoperative_range(&self, class: usize) -> Range<usize> {
        let l = &self.layouts[class];
        l.inoperative_offset..l.inoperative_offset + l.inoperative_phases
    }

    /// Number of operative servers of class `class` in the mode with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()` or `class >= self.class_count()`.
    pub fn class_operative_count(&self, index: usize, class: usize) -> usize {
        self.modes[index].operative()[self.class_operative_range(class)].iter().sum()
    }

    /// The mode with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn mode(&self, index: usize) -> &Mode {
        &self.modes[index]
    }

    /// All modes in enumeration order.
    pub fn iter(&self) -> impl Iterator<Item = &Mode> {
        self.modes.iter()
    }

    /// Index of a mode, or `None` if it does not belong to this space.
    pub fn index_of(&self, mode: &Mode) -> Option<usize> {
        self.index.get(mode).copied()
    }

    /// Number of operative servers in the mode with the given index.
    pub fn operative_count(&self, index: usize) -> usize {
        self.modes[index].operative_count()
    }

    /// Stationary probability of each mode.
    ///
    /// Because servers break down and are repaired independently of the queue, the
    /// stationary distribution of the environment is multinomial: each server is in
    /// operative phase `j` with probability `(α_j/ξ_j)/(1/ξ+1/η)` and in inoperative
    /// phase `k` with probability `(β_k/η_k)/(1/ξ+1/η)`, independently.  The solvers'
    /// mode marginals must agree with this vector — a strong correctness check.
    /// # Panics
    ///
    /// Panics when the space was built from several heterogeneous classes — use
    /// [`stationary_distribution_classes`](Self::stationary_distribution_classes).
    pub fn stationary_distribution(&self, lifecycle: &ServerLifecycle) -> Vec<f64> {
        assert!(
            self.layouts.len() == 1,
            "stationary_distribution takes one lifecycle; this space has {} classes — \
             use stationary_distribution_classes",
            self.layouts.len()
        );
        self.stationary_distribution_parts(&[lifecycle])
    }

    /// Stationary probability of each mode of a heterogeneous space: classes evolve
    /// independently, so the distribution is the product of per-class multinomials.
    ///
    /// # Panics
    ///
    /// Panics when `classes` does not match the class structure the space was built
    /// from (class count or phase counts differ).
    pub fn stationary_distribution_classes(&self, classes: &[ServerClass]) -> Vec<f64> {
        assert!(
            classes.len() == self.layouts.len(),
            "{} classes supplied for a space with {} classes",
            classes.len(),
            self.layouts.len()
        );
        let lifecycles: Vec<&ServerLifecycle> =
            classes.iter().map(ServerClass::lifecycle).collect();
        self.stationary_distribution_parts(&lifecycles)
    }

    fn stationary_distribution_parts(&self, lifecycles: &[&ServerLifecycle]) -> Vec<f64> {
        let per_class_probs: Vec<Vec<f64>> = self
            .layouts
            .iter()
            .zip(lifecycles)
            .map(|(layout, lifecycle)| {
                assert!(
                    lifecycle.operative_phases() == layout.operative_phases
                        && lifecycle.inoperative_phases() == layout.inoperative_phases,
                    "lifecycle phase structure does not match the mode space"
                );
                (0..layout.operative_phases)
                    .map(|j| lifecycle.operative_phase_probability(j))
                    .chain(
                        (0..layout.inoperative_phases)
                            .map(|k| lifecycle.inoperative_phase_probability(k)),
                    )
                    .collect()
            })
            .collect();
        self.modes
            .iter()
            .map(|mode| {
                let mut probability = 1.0;
                for (class, layout) in self.layouts.iter().enumerate() {
                    let occupancies: Vec<usize> = mode.operative[layout.operative_offset
                        ..layout.operative_offset + layout.operative_phases]
                        .iter()
                        .chain(
                            &mode.inoperative[layout.inoperative_offset
                                ..layout.inoperative_offset + layout.inoperative_phases],
                        )
                        .copied()
                        .collect();
                    probability *= multinomial_probability(
                        layout.count,
                        &occupancies,
                        &per_class_probs[class],
                    );
                }
                probability
            })
            .collect()
    }

    /// Expected number of operative servers under the stationary environment
    /// distribution; equals `N · availability`.
    pub fn expected_operative_servers(&self, lifecycle: &ServerLifecycle) -> f64 {
        self.stationary_distribution(lifecycle)
            .iter()
            .zip(&self.modes)
            .map(|(p, mode)| p * mode.operative_count() as f64)
            .sum()
    }
}

/// Recursively enumerates all compositions of `remaining` into the tail of `current`
/// starting at `position`, invoking `emit` for each complete composition.
fn enumerate_compositions(
    remaining: usize,
    position: usize,
    current: &mut Vec<usize>,
    emit: &mut impl FnMut(&[usize]),
) {
    if position + 1 == current.len() {
        current[position] = remaining;
        emit(current);
        return;
    }
    for value in 0..=remaining {
        current[position] = value;
        enumerate_compositions(remaining - value, position + 1, current, emit);
    }
}

/// Multinomial probability `N!/(∏ c_i!) ∏ p_i^{c_i}` computed in log space for
/// robustness with large `N`.
fn multinomial_probability(total: usize, counts: &[usize], probs: &[f64]) -> f64 {
    debug_assert_eq!(counts.len(), probs.len());
    debug_assert_eq!(counts.iter().sum::<usize>(), total);
    let mut log_prob = ln_factorial(total);
    for (&c, &p) in counts.iter().zip(probs) {
        log_prob -= ln_factorial(c);
        if c > 0 {
            if p <= 0.0 {
                return 0.0;
            }
            log_prob += c as f64 * p.ln();
        }
    }
    log_prob.exp()
}

/// Natural log of `n!` by direct summation (adequate for the server counts involved).
fn ln_factorial(n: usize) -> f64 {
    (2..=n).map(|i| (i as f64).ln()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use urs_dist::HyperExponential;

    fn paper_lifecycle() -> ServerLifecycle {
        ServerLifecycle::paper_fitted().unwrap()
    }

    #[test]
    fn mode_count_matches_equation_12() {
        let lc = paper_lifecycle();
        for servers in [1usize, 2, 5, 10] {
            let space = ModeSpace::new(servers, &lc).unwrap();
            assert_eq!(space.len(), (servers + 2) * (servers + 1) / 2);
            assert!(!space.is_empty());
        }
        // A 2-phase repair distribution increases the composition dimension.
        let lc2 = ServerLifecycle::new(
            HyperExponential::new(&[0.7, 0.3], &[0.2, 0.01]).unwrap(),
            HyperExponential::new(&[0.9, 0.1], &[25.0, 1.6]).unwrap(),
        );
        let space = ModeSpace::new(3, &lc2).unwrap();
        // C(3+4-1, 3) = C(6,3) = 20
        assert_eq!(space.len(), 20);
    }

    #[test]
    fn enumeration_and_index_are_run_to_run_deterministic() {
        // Two independently built spaces must agree on the enumeration order and
        // on every reverse lookup — the mode index must never depend on map
        // iteration order.
        let lc = paper_lifecycle();
        let a = ModeSpace::new(5, &lc).unwrap();
        let b = ModeSpace::new(5, &lc).unwrap();
        let modes_a: Vec<&Mode> = a.iter().collect();
        let modes_b: Vec<&Mode> = b.iter().collect();
        assert_eq!(modes_a, modes_b);
        for (i, mode) in a.iter().enumerate() {
            assert_eq!(a.index_of(mode), Some(i));
            assert_eq!(b.index_of(mode), Some(i));
        }
    }

    #[test]
    fn paper_example_n2_has_six_modes() {
        // Paper, Section 3.1: N = 2, n = 2, m = 1 gives 6 operational modes.
        let space = ModeSpace::new(2, &paper_lifecycle()).unwrap();
        assert_eq!(space.len(), 6);
        // Every mode accounts for both servers.
        for mode in space.iter() {
            assert_eq!(mode.total_servers(), 2);
        }
        // The specific modes of the paper's example all exist.
        for (x, y) in [([0, 0], 2), ([1, 0], 1), ([0, 1], 1), ([2, 0], 0), ([1, 1], 0), ([0, 2], 0)]
        {
            let mode = Mode::new(x.to_vec(), vec![y]);
            assert!(space.index_of(&mode).is_some(), "missing mode {mode:?}");
        }
    }

    #[test]
    fn indices_round_trip() {
        let space = ModeSpace::new(4, &paper_lifecycle()).unwrap();
        for i in 0..space.len() {
            let mode = space.mode(i).clone();
            assert_eq!(space.index_of(&mode), Some(i));
        }
        assert_eq!(space.index_of(&Mode::new(vec![9, 0], vec![0])), None);
    }

    #[test]
    fn zero_servers_rejected() {
        assert!(ModeSpace::new(0, &paper_lifecycle()).is_err());
    }

    #[test]
    fn stationary_distribution_is_a_probability_vector() {
        let lc = paper_lifecycle();
        let space = ModeSpace::new(6, &lc).unwrap();
        let pi = space.stationary_distribution(&lc);
        assert_eq!(pi.len(), space.len());
        assert!(pi.iter().all(|p| *p >= 0.0));
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn expected_operative_servers_equals_availability_times_n() {
        let lc = paper_lifecycle();
        for servers in [1usize, 3, 8] {
            let space = ModeSpace::new(servers, &lc).unwrap();
            let expected = space.expected_operative_servers(&lc);
            assert!(
                (expected - servers as f64 * lc.availability()).abs() < 1e-9,
                "servers {servers}: {expected}"
            );
        }
    }

    #[test]
    fn stationary_distribution_for_single_exponential_server() {
        // One server, exponential lifecycle: availability = η/(ξ+η) exactly.
        let lc = ServerLifecycle::exponential(0.5, 2.0).unwrap();
        let space = ModeSpace::new(1, &lc).unwrap();
        let pi = space.stationary_distribution(&lc);
        assert_eq!(space.len(), 2);
        let up_index = (0..space.len()).find(|&i| space.operative_count(i) == 1).unwrap();
        assert!((pi[up_index] - 0.8).abs() < 1e-12);
        assert!((pi[1 - up_index] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn operative_counts_are_consistent() {
        let space = ModeSpace::new(5, &paper_lifecycle()).unwrap();
        for (i, mode) in space.iter().enumerate() {
            assert_eq!(space.operative_count(i), mode.operative_count());
            assert_eq!(mode.operative_count() + mode.inoperative_count(), 5);
        }
    }
}
