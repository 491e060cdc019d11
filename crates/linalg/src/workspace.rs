//! Reusable scratch buffers for allocation-free hot loops.

use crate::matrix::Matrix;

/// A pool of reusable scratch buffers backing the `_into` kernel family.
///
/// Iterative solvers — the cyclic-reduction `R` computation, the block-tridiagonal
/// boundary elimination — need a handful of temporary matrices and vectors *per
/// iteration*.  Allocating them fresh each time dominates the runtime of small systems
/// and fragments the heap for large ones.  A `Workspace` hands out buffers and takes
/// them back, so a steady-state loop performs no heap allocation at all: acquire with
/// [`real_matrix`](Self::real_matrix) (or [`real_buffer`](Self::real_buffer)), release
/// with the matching `release_*` call, and the storage is recycled for the next request
/// of any shape with sufficient capacity.
///
/// The pool is deliberately *not* thread-safe: each worker of a parallel sweep owns its
/// own workspace, which keeps the hot path free of synchronisation.
///
/// # Example
///
/// ```
/// use urs_linalg::{Matrix, Workspace};
///
/// # fn main() -> Result<(), urs_linalg::LinalgError> {
/// let a = Matrix::identity(3);
/// let mut ws = Workspace::new();
/// let mut product = ws.real_matrix(3, 3); // zeroed scratch matrix
/// product.gemm(2.0, &a, &a, 0.0)?;
/// assert_eq!(product[(1, 1)], 2.0);
/// ws.release_real_matrix(product); // storage is reused by the next request
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    real: Vec<Vec<f64>>,
}

impl Workspace {
    /// Creates an empty workspace; buffers are pooled as they are released.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Hands out a zeroed real buffer of the given length, reusing pooled storage.
    pub fn real_buffer(&mut self, len: usize) -> Vec<f64> {
        match self.real.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// Returns a real buffer to the pool.
    pub fn release_real_buffer(&mut self, buf: Vec<f64>) {
        self.real.push(buf);
    }

    /// Hands out a zeroed `rows × cols` real matrix backed by pooled storage.
    pub fn real_matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        let buf = self.real_buffer(rows * cols);
        // urs-analyze: allow(no_panic, reason = "real_buffer returns exactly rows*cols elements on the line above")
        Matrix::from_vec(rows, cols, buf).expect("buffer length matches by construction")
    }

    /// Returns a real matrix's storage to the pool.
    pub fn release_real_matrix(&mut self, m: Matrix) {
        self.real.push(m.into_vec());
    }

    /// Number of pooled (currently idle) buffers.
    pub fn pooled(&self) -> usize {
        self.real.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_recycled() {
        let mut ws = Workspace::new();
        let m = ws.real_matrix(4, 4);
        assert_eq!(m.shape(), (4, 4));
        ws.release_real_matrix(m);
        assert_eq!(ws.pooled(), 1);
        // A differently-shaped request reuses the same storage.
        let v = ws.real_buffer(2);
        assert_eq!(ws.pooled(), 0);
        assert_eq!(v, vec![0.0, 0.0]);
        ws.release_real_buffer(v);
        assert_eq!(ws.pooled(), 1);
    }

    #[test]
    fn released_buffers_come_back_zeroed() {
        let mut ws = Workspace::new();
        let mut m = ws.real_matrix(2, 2);
        m[(0, 0)] = 1.0;
        ws.release_real_matrix(m);
        let again = ws.real_matrix(2, 2);
        assert_eq!(again.as_slice(), &[0.0; 4]);
    }
}
