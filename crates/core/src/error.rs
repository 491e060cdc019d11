//! Error type for model construction and solution.

use std::error::Error;
use std::fmt;

use urs_dist::DistError;
use urs_linalg::LinalgError;

/// Errors produced when building or solving the multi-server breakdown model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// A configuration parameter is outside its valid range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The supplied value.
        value: f64,
        /// Description of the violated constraint.
        constraint: &'static str,
    },
    /// The queue is not ergodic: the offered load is not smaller than the average number
    /// of operative servers (paper, equation 11).
    Unstable {
        /// Offered load `λ/µ`.
        offered_load: f64,
        /// Steady-state average number of operative servers `N·η/(ξ+η)`.
        effective_servers: f64,
    },
    /// The spectral expansion produced an unexpected number of eigenvalues inside the
    /// unit disk, or otherwise failed to deliver a usable solution.
    SpectralFailure(String),
    /// An iterative solver did not converge.
    NoConvergence {
        /// Name of the algorithm.
        algorithm: &'static str,
        /// Iterations performed.
        iterations: usize,
    },
    /// The two-sided bound on a response-time CDF value is wider than the declared
    /// tolerance, so the value cannot be certified.  Produced by the runtime
    /// certification of [`response`](crate::response).
    BoundViolation {
        /// The time point at which the bound is too wide.
        time: f64,
        /// Lower bound on the CDF at `time`.
        lower: f64,
        /// Upper bound on the CDF at `time`.
        upper: f64,
        /// The declared tolerance on the bound's width that was exceeded.
        tolerance: f64,
    },
    /// A broken internal invariant that would previously have panicked.  Seeing
    /// this variant is a bug in this crate, but a recoverable one: callers get a
    /// diagnosable error instead of a dead process.
    Internal(&'static str),
    /// An error bubbled up from the linear-algebra layer.
    Linalg(LinalgError),
    /// An error bubbled up from the distribution layer.
    Dist(DistError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidParameter { name, value, constraint } => {
                write!(f, "invalid parameter {name} = {value}: {constraint}")
            }
            ModelError::Unstable { offered_load, effective_servers } => write!(
                f,
                "queue is unstable: offered load {offered_load:.4} is not below the average \
                 number of operative servers {effective_servers:.4}"
            ),
            ModelError::SpectralFailure(msg) => write!(f, "spectral expansion failed: {msg}"),
            ModelError::NoConvergence { algorithm, iterations } => {
                write!(f, "{algorithm} did not converge after {iterations} iterations")
            }
            ModelError::BoundViolation { time, lower, upper, tolerance } => write!(
                f,
                "response-time CDF bounds at t = {time} are [{lower:.12e}, {upper:.12e}], \
                 wider than tolerance {tolerance:.3e}"
            ),
            ModelError::Internal(invariant) => {
                write!(f, "internal invariant violated (please report): {invariant}")
            }
            ModelError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            ModelError::Dist(e) => write!(f, "distribution error: {e}"),
        }
    }
}

impl Error for ModelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelError::Linalg(e) => Some(e),
            ModelError::Dist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for ModelError {
    fn from(e: LinalgError) -> Self {
        ModelError::Linalg(e)
    }
}

impl From<urs_linalg::WorkerPanic> for ModelError {
    /// A contained worker panic surfaces as [`LinalgError::WorkerPanic`]; this impl
    /// lets [`ThreadPool::try_par_map`](crate::ThreadPool::try_par_map) convert panics
    /// directly into the solver error type.
    fn from(p: urs_linalg::WorkerPanic) -> Self {
        ModelError::Linalg(p.into())
    }
}

impl From<DistError> for ModelError {
    fn from(e: DistError) -> Self {
        ModelError::Dist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = ModelError::InvalidParameter { name: "servers", value: 0.0, constraint: "≥ 1" };
        assert!(e.to_string().contains("servers"));
        let e = ModelError::Unstable { offered_load: 9.0, effective_servers: 8.5 };
        assert!(e.to_string().contains("unstable"));
        assert!(ModelError::SpectralFailure("missing eigenvalue".into())
            .to_string()
            .contains("missing eigenvalue"));
        let e = ModelError::NoConvergence { algorithm: "R iteration", iterations: 500 };
        assert!(e.to_string().contains("R iteration"));
        let e = ModelError::BoundViolation { time: 2.0, lower: 0.5, upper: 0.6, tolerance: 1e-8 };
        assert!(e.to_string().contains("wider than tolerance"));
    }

    #[test]
    fn conversions_preserve_source() {
        let lin: ModelError = LinalgError::Singular { pivot: 3 }.into();
        assert!(lin.source().is_some());
        let dist: ModelError = DistError::InsufficientData("x".into()).into();
        assert!(dist.to_string().contains("distribution"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<ModelError>();
    }
}
