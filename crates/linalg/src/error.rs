//! Error type shared by every fallible operation in the crate.

use std::error::Error;
use std::fmt;

/// Errors produced by the linear-algebra kernels.
///
/// Every public fallible function in this crate returns a [`LinalgError`] rather than
/// panicking so that callers (the queueing solvers) can degrade gracefully — e.g. fall
/// back from the spectral expansion to the geometric approximation when a system
/// becomes ill-conditioned.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Two operands have incompatible shapes (e.g. multiplying a 3×2 by a 4×4 matrix).
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        operation: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        left: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        right: (usize, usize),
    },
    /// A matrix that must be square is not.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// A factorisation or solve encountered an (effectively) singular matrix.
    Singular {
        /// Index of the pivot at which singularity was detected.
        pivot: usize,
    },
    /// A Cholesky factorisation met a pivot that is not positive: the matrix is not
    /// (numerically) positive definite.
    NotPositiveDefinite {
        /// Index of the first non-positive pivot.
        pivot: usize,
    },
    /// An iterative algorithm did not converge within its iteration budget.
    NoConvergence {
        /// Name of the algorithm.
        algorithm: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// The input data is invalid (empty matrix, ragged rows, non-finite entries, …).
    InvalidInput(String),
    /// A worker thread panicked inside a parallel kernel.  The reported index is the
    /// smallest-indexed work item that panicked — the same item a serial run would
    /// have blown up on — so the error is independent of the thread count.
    WorkerPanic {
        /// Index of the smallest-indexed work item whose closure panicked.
        index: usize,
        /// The panic payload rendered as text.
        message: String,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { operation, left, right } => write!(
                f,
                "dimension mismatch in {operation}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square but has shape {rows}x{cols}")
            }
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular to working precision (pivot {pivot})")
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::NoConvergence { algorithm, iterations } => {
                write!(f, "{algorithm} did not converge after {iterations} iterations")
            }
            LinalgError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            LinalgError::WorkerPanic { index, message } => {
                write!(f, "worker panicked at parallel work item {index}: {message}")
            }
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let err = LinalgError::DimensionMismatch {
            operation: "matrix multiplication",
            left: (3, 2),
            right: (4, 4),
        };
        let text = err.to_string();
        assert!(text.contains("matrix multiplication"));
        assert!(text.contains("3x2"));
        assert!(text.contains("4x4"));
    }

    #[test]
    fn display_singular_and_not_square() {
        assert!(LinalgError::Singular { pivot: 2 }.to_string().contains("pivot 2"));
        assert!(LinalgError::NotSquare { rows: 2, cols: 3 }.to_string().contains("2x3"));
        let text = LinalgError::NotPositiveDefinite { pivot: 4 }.to_string();
        assert!(text.contains("positive definite") && text.contains("pivot 4"));
    }

    #[test]
    fn display_no_convergence_and_invalid() {
        let err = LinalgError::NoConvergence { algorithm: "francis-qr", iterations: 30 };
        assert!(err.to_string().contains("francis-qr"));
        let err = LinalgError::InvalidInput("empty matrix".into());
        assert!(err.to_string().contains("empty matrix"));
    }

    #[test]
    fn display_worker_panic() {
        let err = LinalgError::WorkerPanic { index: 4, message: "overflow".into() };
        let text = err.to_string();
        assert!(text.contains("work item 4"));
        assert!(text.contains("overflow"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
