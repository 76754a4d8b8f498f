//! Linear solvers for the sparse systems produced by CTMC analysis.
//!
//! The mean-time-to-absorption system `Qᵀ_TT σ = −π₀` has a weakly
//! diagonally dominant, irreducibly structured matrix, for which the classic
//! stationary iterations converge reliably. We provide Gauss–Seidel (the
//! per-component solve of the SCC absorption path in `spn::ctmc`), a dense
//! partial-pivot LU fallback used for small systems and for verifying the
//! iterative results in tests, and power iteration for stationary
//! distributions of stochastic matrices.

use crate::sparse::Csr;

/// Outcome of an iterative solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveReport {
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final residual max-norm `‖Ax − b‖∞`.
    pub residual: f64,
    /// Whether the tolerance was met before the iteration cap.
    pub converged: bool,
}

/// Configuration shared by the stationary iterative solvers.
#[derive(Debug, Clone, Copy)]
pub struct IterConfig {
    /// Absolute residual tolerance in max-norm.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
}

impl Default for IterConfig {
    fn default() -> Self {
        Self {
            tolerance: 1e-12,
            max_iterations: 100_000,
        }
    }
}

fn residual_inf(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    let mut worst = 0.0_f64;
    for r in 0..a.rows() {
        let mut acc = 0.0;
        for (c, v) in a.row(r) {
            acc += v * x[c];
        }
        worst = worst.max((acc - b[r]).abs());
    }
    worst
}

/// Gauss–Seidel iteration for `A x = b`.
///
/// # Panics
/// Panics on dimension mismatch or a zero diagonal entry.
pub fn gauss_seidel(a: &Csr, b: &[f64], cfg: &IterConfig) -> (Vec<f64>, SolveReport) {
    let n = a.rows();
    assert_eq!(a.cols(), n, "gauss_seidel: matrix must be square");
    assert_eq!(b.len(), n, "gauss_seidel: rhs dimension mismatch");
    let diag: Vec<f64> = (0..n).map(|r| a.get(r, r)).collect();
    assert!(
        diag.iter().all(|&d| d != 0.0),
        "gauss_seidel: zero diagonal"
    );
    let mut x = vec![0.0; n];
    for it in 0..cfg.max_iterations {
        let mut delta_max = 0.0_f64;
        for r in 0..n {
            let mut acc = b[r];
            for (c, v) in a.row(r) {
                if c != r {
                    acc -= v * x[c];
                }
            }
            let gs = acc / diag[r];
            // Applied as a correction rather than stored as `gs`: the two
            // round differently, and the absorption results are pinned.
            let new = x[r] + (gs - x[r]);
            delta_max = delta_max.max((new - x[r]).abs());
            x[r] = new;
        }
        // Cheap update-based check first; confirm with a true residual.
        if delta_max <= cfg.tolerance {
            let res = residual_inf(a, &x, b);
            if res <= cfg.tolerance.max(1e-10) {
                return (
                    x,
                    SolveReport {
                        iterations: it + 1,
                        residual: res,
                        converged: true,
                    },
                );
            }
        }
    }
    let res = residual_inf(a, &x, b);
    (
        x,
        SolveReport {
            iterations: cfg.max_iterations,
            residual: res,
            converged: res <= cfg.tolerance,
        },
    )
}

/// Dense LU with partial pivoting, in place: `a` is the `n × n` matrix in
/// row-major order (`n = x.len()`) and is overwritten by its factors; `x`
/// holds the right-hand side on entry and the solution on success. Returns
/// `false` for a singular matrix (a pivot below `1e-300`), leaving `a` and
/// `x` partly eliminated. Callers own both buffers, so a sequence of small
/// solves reuses one allocation.
///
/// Intended for small systems (n ≤ a few thousand) and for validating the
/// iterative solvers; O(n³).
///
/// # Panics
/// Panics if `a.len() != x.len()²` or the matrix holds a NaN.
pub fn dense_lu_solve(a: &mut [f64], x: &mut [f64]) -> bool {
    let n = x.len();
    assert_eq!(a.len(), n * n, "dense_lu: matrix is not n × n");
    for col in 0..n {
        // pivot
        let (pivot_row, pivot_val) = (col..n)
            .map(|r| (r, a[r * n + col].abs()))
            .max_by(|x, y| x.1.partial_cmp(&y.1).expect("NaN in LU"))
            .expect("non-empty range");
        if pivot_val < 1e-300 {
            return false;
        }
        if pivot_row != col {
            for c in 0..n {
                a.swap(col * n + c, pivot_row * n + c);
            }
        }
        x.swap(col, pivot_row);
        let (upper, lower) = a.split_at_mut((col + 1) * n);
        let pivot = &upper[col * n..];
        let inv = 1.0 / pivot[col];
        for (k, row) in lower.chunks_exact_mut(n).enumerate() {
            let f = row[col] * inv;
            if f == 0.0 {
                continue;
            }
            row[col] = 0.0;
            for c in col + 1..n {
                row[c] -= f * pivot[c];
            }
            x[col + 1 + k] -= f * x[col];
        }
    }
    // back substitution
    for col in (0..n).rev() {
        x[col] /= a[col * n + col];
        let xc = x[col];
        for r in 0..col {
            x[r] -= a[r * n + col] * xc;
        }
    }
    true
}

/// Power iteration for the stationary row vector `π P = π` of a stochastic
/// matrix `P` (rows sum to 1). Returns the normalized distribution.
///
/// # Panics
/// Panics if `p` is not square.
pub fn power_iteration_stationary(p: &Csr, cfg: &IterConfig) -> (Vec<f64>, SolveReport) {
    let n = p.rows();
    assert_eq!(p.cols(), n, "power iteration needs a square matrix");
    let mut pi = vec![1.0 / n as f64; n];
    let mut next = vec![0.0; n];
    for it in 0..cfg.max_iterations {
        p.vecmat_into(&pi, &mut next);
        let total: f64 = next.iter().sum();
        if total > 0.0 {
            for v in next.iter_mut() {
                *v /= total;
            }
        }
        let diff = pi
            .iter()
            .zip(&next)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        std::mem::swap(&mut pi, &mut next);
        if diff <= cfg.tolerance {
            return (
                pi,
                SolveReport {
                    iterations: it + 1,
                    residual: diff,
                    converged: true,
                },
            );
        }
    }
    (
        pi.clone(),
        SolveReport {
            iterations: cfg.max_iterations,
            residual: f64::NAN,
            converged: false,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Triplets;

    fn assert_vec_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (u, v) in a.iter().zip(b) {
            assert!((u - v).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn dense_lu_exact() {
        let mut a = [2.0, 1.0, 1.0, 3.0];
        let mut x = [5.0, 10.0];
        assert!(dense_lu_solve(&mut a, &mut x));
        assert_vec_close(&x, &[1.0, 3.0], 1e-12);
    }

    #[test]
    fn dense_lu_needs_pivoting() {
        // zero leading pivot forces a row swap
        let mut a = [0.0, 1.0, 1.0, 0.0];
        let mut x = [2.0, 3.0];
        assert!(dense_lu_solve(&mut a, &mut x));
        assert_vec_close(&x, &[3.0, 2.0], 1e-12);
    }

    #[test]
    fn dense_lu_detects_singular() {
        let mut a = [1.0, 2.0, 2.0, 4.0];
        assert!(!dense_lu_solve(&mut a, &mut [1.0, 2.0]));
    }

    #[test]
    fn dense_lu_empty_system() {
        assert!(dense_lu_solve(&mut [], &mut []));
    }

    #[test]
    fn iterative_matches_lu_on_random_dominant_system() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let n = 40;
        let mut t = Triplets::new(n, n);
        let mut dense = vec![vec![0.0; n]; n];
        for r in 0..n {
            let mut offdiag = 0.0;
            for c in 0..n {
                if r != c && rng.gen::<f64>() < 0.2 {
                    let v: f64 = rng.gen_range(-1.0..1.0);
                    t.push(r, c, v);
                    dense[r][c] = v;
                    offdiag += v.abs();
                }
            }
            let d = offdiag + 1.0;
            t.push(r, r, d);
            dense[r][r] = d;
        }
        let a = t.build();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let (xi, rep) = gauss_seidel(&a, &b, &IterConfig::default());
        assert!(rep.converged);
        let mut xd = b.clone();
        assert!(dense_lu_solve(&mut dense.concat(), &mut xd));
        assert_vec_close(&xi, &xd, 1e-8);
    }

    #[test]
    fn power_iteration_two_state_chain() {
        // P = [[0.9, 0.1],[0.5,0.5]] => pi = (5/6, 1/6)
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 0.9);
        t.push(0, 1, 0.1);
        t.push(1, 0, 0.5);
        t.push(1, 1, 0.5);
        let p = t.build();
        let (pi, rep) = power_iteration_stationary(&p, &IterConfig::default());
        assert!(rep.converged);
        assert_vec_close(&pi, &[5.0 / 6.0, 1.0 / 6.0], 1e-9);
    }
}
