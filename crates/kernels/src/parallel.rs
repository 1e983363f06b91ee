//! Thread-parallel host kernels (`std::thread::scope`).
//!
//! The reference kernels are single-threaded oracles; these are the
//! multi-core variants a host would actually run while the accelerator is
//! busy — and a software demonstration of the paper's central split: SpMV
//! parallelizes by row chunks with no coordination, while a Gauss-Seidel
//! sweep cannot be chunked this way at all (the dependency chain), which is
//! why only [`par_spmv`] exists here and SymGS goes to the accelerator.

use alrescha_sparse::Csr;

use crate::{check_len, Result};

/// Parallel `y = A·x` over row chunks with `threads` workers.
///
/// Results are identical to [`crate::spmv::spmv`] (same per-row summation
/// order; rows are partitioned, not reassociated).
///
/// # Errors
///
/// Returns [`crate::KernelError::DimensionMismatch`] if `x.len() != a.cols()`.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn par_spmv(a: &Csr, x: &[f64], threads: usize) -> Result<Vec<f64>> {
    check_len(a.cols(), x.len())?;
    assert!(threads > 0, "at least one worker thread");
    let n = a.rows();
    let mut y = vec![0.0; n];
    let chunk = n.div_ceil(threads.min(n.max(1)));
    if chunk == 0 {
        return Ok(y);
    }
    std::thread::scope(|scope| {
        for (t, y_chunk) in y.chunks_mut(chunk).enumerate() {
            let start = t * chunk;
            scope.spawn(move || {
                for (k, yr) in y_chunk.iter_mut().enumerate() {
                    let row = start + k;
                    *yr = a.row_entries(row).map(|(c, v)| v * x[c]).sum();
                }
            });
        }
    });
    Ok(y)
}

/// Parallel dot product with per-chunk partial sums combined in chunk
/// order (deterministic for a fixed `threads`).
///
/// # Panics
///
/// Panics if lengths differ or `threads == 0`.
pub fn par_dot(a: &[f64], b: &[f64], threads: usize) -> f64 {
    assert_eq!(a.len(), b.len(), "dot operand length mismatch");
    assert!(threads > 0, "at least one worker thread");
    let n = a.len();
    if n == 0 {
        return 0.0;
    }
    let chunk = n.div_ceil(threads.min(n));
    let mut partials = vec![0.0; n.div_ceil(chunk)];
    std::thread::scope(|scope| {
        for (t, out) in partials.iter_mut().enumerate() {
            let lo = t * chunk;
            let hi = (lo + chunk).min(n);
            scope.spawn(move || {
                *out = a[lo..hi].iter().zip(&b[lo..hi]).map(|(x, y)| x * y).sum();
            });
        }
    });
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv::spmv;
    use alrescha_sparse::gen;

    #[test]
    fn par_spmv_matches_sequential_exactly() {
        let coo = gen::stencil27(5);
        let a = Csr::from_coo(&coo);
        let x: Vec<f64> = (0..a.cols()).map(|i| (i as f64 * 0.11).sin()).collect();
        let seq = spmv(&a, &x);
        for threads in [1usize, 2, 4, 7] {
            let par = par_spmv(&a, &x, threads).unwrap();
            assert_eq!(par, seq, "threads {threads}");
        }
    }

    #[test]
    fn par_spmv_handles_more_threads_than_rows() {
        let coo = gen::banded(5, 1, 1);
        let a = Csr::from_coo(&coo);
        let x = vec![1.0; 5];
        let par = par_spmv(&a, &x, 32).unwrap();
        assert_eq!(par, spmv(&a, &x));
    }

    #[test]
    fn par_dot_is_deterministic_per_thread_count() {
        let a: Vec<f64> = (0..1000).map(|i| f64::from(i).sin()).collect();
        let b: Vec<f64> = (0..1000).map(|i| f64::from(i).cos()).collect();
        let d1 = par_dot(&a, &b, 4);
        let d2 = par_dot(&a, &b, 4);
        assert_eq!(d1, d2);
        let seq = crate::dot(&a, &b);
        assert!((d1 - seq).abs() < 1e-9 * seq.abs().max(1.0));
    }

    #[test]
    fn par_dot_of_empty_is_zero() {
        assert_eq!(par_dot(&[], &[], 3), 0.0);
    }

    #[test]
    fn rejects_bad_lengths() {
        let a = Csr::from_coo(&gen::banded(10, 1, 1));
        assert!(par_spmv(&a, &[1.0], 2).is_err());
    }
}
