//! Compressed sparse row (CSR) matrices.
//!
//! The CTMC generators produced by the SPN reachability graph are extremely
//! sparse (≤ 7 transitions per state in the paper's model), so all solvers
//! run on this representation. Construction goes through a triplet buffer
//! ([`Triplets`]) that sorts and merges duplicates once.
//!
//! The sparsity *structure* ([`CsrPattern`]: row pointers + column indices)
//! is split from the value array and shared behind an [`Arc`]: re-weighted
//! solves that keep the pattern fixed (the explore-once-solve-many sweeps)
//! build the structure once and thereafter only rewrite [`Csr::values_mut`]
//! in place — cloning a [`Csr`] never copies the pattern.

use std::sync::Arc;

/// Fixed-order gather dot product of one CSR row against a dense vector:
/// `Σⱼ vals[j] · x[cols[j]]`, accumulated strictly in ascending stored
/// order. Both gather kernels in this module (CSR and [`EllMatrix`]) use
/// this same in-order accumulation, so they produce bit-identical results
/// for the same row content — the evaluation order is a pure function of
/// the row structure, never of storage format.
#[inline]
fn gather_row(cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
    debug_assert_eq!(cols.len(), vals.len());
    let mut acc = 0.0_f64;
    for (&c, &v) in cols.iter().zip(vals) {
        acc += v * x[c as usize];
    }
    acc
}

/// The immutable sparsity structure of a [`Csr`]: everything except the
/// values. Shared (via [`Arc`]) between all value arrays laid out on the
/// same pattern.
#[derive(Debug, PartialEq, Eq)]
pub struct CsrPattern {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
}

impl CsrPattern {
    /// Build a pattern from raw CSR structure.
    ///
    /// # Panics
    /// Panics if `row_ptr` is not a valid monotone pointer array of length
    /// `rows + 1` ending at `col_idx.len()`, or any column is out of range.
    pub fn new(rows: usize, cols: usize, row_ptr: Vec<u32>, col_idx: Vec<u32>) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr length mismatch");
        assert_eq!(
            row_ptr[rows] as usize,
            col_idx.len(),
            "row_ptr must end at nnz"
        );
        assert!(
            row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "row_ptr must be non-decreasing"
        );
        assert!(
            col_idx.iter().all(|&c| (c as usize) < cols),
            "column index out of range"
        );
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Half-open range of value-array slots belonging to row `r`.
    pub fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize
    }

    /// Column indices of row `r`.
    pub fn row_cols(&self, r: usize) -> &[u32] {
        &self.col_idx[self.row_range(r)]
    }

    /// Column index of a flat value-array slot.
    pub fn col(&self, entry: usize) -> usize {
        self.col_idx[entry] as usize
    }
}

/// Triplet (COO) accumulation buffer for building a [`Csr`].
#[derive(Debug, Clone, Default)]
pub struct Triplets {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl Triplets {
    /// New buffer for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Append `a[r, c] += v`.
    ///
    /// # Panics
    /// Panics if the indices are out of range.
    pub fn push(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "triplet ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        if v != 0.0 {
            self.entries.push((r as u32, c as u32, v));
        }
    }

    /// Number of raw (pre-merge) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries were pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sort, merge duplicates, and build the CSR matrix.
    pub fn build(mut self) -> Csr {
        self.entries
            .sort_unstable_by_key(|&(r, c, _)| ((r as u64) << 32) | c as u64);
        let mut merged: Vec<(u32, u32, f64)> = Vec::with_capacity(self.entries.len());
        for (r, c, v) in self.entries {
            match merged.last_mut() {
                Some((pr, pc, pv)) if *pr == r && *pc == c => *pv += v,
                _ => merged.push((r, c, v)),
            }
        }
        let mut row_ptr = vec![0u32; self.rows + 1];
        for &(r, _, _) in &merged {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let (col_idx, values) = merged.into_iter().map(|(_, c, v)| (c, v)).unzip();
        Csr {
            pattern: Arc::new(CsrPattern::new(self.rows, self.cols, row_ptr, col_idx)),
            values,
        }
    }
}

/// Compressed sparse row matrix with `f64` values: a shared [`CsrPattern`]
/// plus this matrix's own value array.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    pattern: Arc<CsrPattern>,
    values: Vec<f64>,
}

impl Csr {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            pattern: Arc::new(CsrPattern::new(rows, cols, vec![0; rows + 1], Vec::new())),
            values: Vec::new(),
        }
    }

    /// Matrix laid out on an existing (shared) pattern.
    ///
    /// # Panics
    /// Panics if `values.len()` differs from the pattern's entry count.
    pub fn from_pattern(pattern: Arc<CsrPattern>, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), pattern.nnz(), "value array length mismatch");
        Self { pattern, values }
    }

    /// The sparsity structure (shareable across value arrays).
    pub fn pattern(&self) -> &Arc<CsrPattern> {
        &self.pattern
    }

    /// The stored values, in pattern (row-major, column-sorted) order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable stored values — the in-place update hook for re-weighted
    /// solves that keep the pattern fixed.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 1.0);
        }
        t.build()
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.pattern.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.pattern.cols
    }

    /// Number of stored entries (explicit zeros included).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterate `(col, value)` pairs of row `r`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.pattern.row_range(r);
        self.pattern.col_idx[range.clone()]
            .iter()
            .zip(&self.values[range])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Entry lookup (O(row nnz)).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.row(r).find(|&(cc, _)| cc == c).map_or(0.0, |(_, v)| v)
    }

    /// `y = A x` (allocates).
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows()];
        self.matvec_into(x, &mut y);
        y
    }

    /// `y = A x` into a caller-provided buffer.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols(), "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows(), "matvec output dimension mismatch");
        for r in 0..self.rows() {
            let mut acc = 0.0;
            for (c, v) in self.row(r) {
                acc += v * x[c];
            }
            y[r] = acc;
        }
    }

    /// `y = xᵀ A` (row vector times matrix) into a caller buffer.
    pub fn vecmat_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows(), "vecmat dimension mismatch");
        assert_eq!(y.len(), self.cols(), "vecmat output dimension mismatch");
        y.fill(0.0);
        for r in 0..self.rows() {
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            for (c, v) in self.row(r) {
                y[c] += xr * v;
            }
        }
    }

    /// `y = A x` by per-row gather dot products (`gather_row`). Each
    /// output element is an independent fixed-order dot, so the result is a
    /// pure function of the stored structure — see [`EllMatrix`] for the
    /// padded fixed-width variant the transient engine's hot loop uses.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn gather_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols(), "gather dimension mismatch");
        assert_eq!(y.len(), self.rows(), "gather output dimension mismatch");
        for (r, out) in y.iter_mut().enumerate() {
            let range = self.pattern.row_range(r);
            *out = gather_row(&self.pattern.col_idx[range.clone()], &self.values[range], x);
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Csr {
        let mut t = Triplets::new(self.cols(), self.rows());
        for r in 0..self.rows() {
            for (c, v) in self.row(r) {
                t.push(c, r, v);
            }
        }
        t.build()
    }

    /// Row sums.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows())
            .map(|r| self.row(r).map(|(_, v)| v).sum())
            .collect()
    }

    /// Dense copy (rows × cols) — test/debug helper, avoid for large
    /// matrices.
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; self.cols()]; self.rows()];
        for r in 0..self.rows() {
            for (c, v) in self.row(r) {
                d[r][c] = v;
            }
        }
        d
    }
}

/// Fixed-width (ELLPACK) gather matrix: every row is padded to the widest
/// row with `(col 0, value 0.0)` slots, so `y = A·x` is one branch-free
/// streaming loop with no per-row pointer bookkeeping. CTMC generators are
/// narrow (≤ ~7 entries per row in the paper's model), so padding waste is
/// small while the constant-width inner loop — monomorphized per width via
/// [`EllMatrix::gather_into`]'s dispatch — roughly halves the per-entry
/// cost of the CSR gather on the transient engine's hot path.
///
/// Accumulation per row is strictly in stored (ascending-column) order
/// followed by the zero pads, which add exactly `+0.0` terms: the result
/// is bit-identical to [`Csr::gather_into`] on the source matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct EllMatrix {
    rows: usize,
    cols: usize,
    width: usize,
    /// `rows × width` column indices, row-major, padded with column 0.
    col_idx: Vec<u32>,
    /// `rows × width` values, row-major, padded with `0.0`.
    values: Vec<f64>,
}

/// Constant-width ELL gather block: `y[r] = Σⱼ vals[r·W+j] · x[cols[r·W+j]]`
/// in ascending `j` order. Monomorphizing over `W` lets the compiler fully
/// unroll the inner dot product.
fn ell_block<const W: usize>(cols: &[u32], vals: &[f64], x: &[f64], y: &mut [f64]) {
    for (out, (cs, vs)) in y
        .iter_mut()
        .zip(cols.chunks_exact(W).zip(vals.chunks_exact(W)))
    {
        let mut acc = 0.0_f64;
        for j in 0..W {
            acc += vs[j] * x[cs[j] as usize];
        }
        *out = acc;
    }
}

/// Runtime-width fallback of [`ell_block`] for unusually wide matrices.
fn ell_block_dyn(w: usize, cols: &[u32], vals: &[f64], x: &[f64], y: &mut [f64]) {
    for (out, (cs, vs)) in y
        .iter_mut()
        .zip(cols.chunks_exact(w).zip(vals.chunks_exact(w)))
    {
        let mut acc = 0.0_f64;
        for (&c, &v) in cs.iter().zip(vs) {
            acc += v * x[c as usize];
        }
        *out = acc;
    }
}

/// Width dispatch of [`EllMatrix::gather_into`]: the common narrow widths
/// run a fully unrolled kernel.
fn ell_dispatch(w: usize, cols: &[u32], vals: &[f64], x: &[f64], y: &mut [f64]) {
    match w {
        1 => ell_block::<1>(cols, vals, x, y),
        2 => ell_block::<2>(cols, vals, x, y),
        3 => ell_block::<3>(cols, vals, x, y),
        4 => ell_block::<4>(cols, vals, x, y),
        5 => ell_block::<5>(cols, vals, x, y),
        6 => ell_block::<6>(cols, vals, x, y),
        7 => ell_block::<7>(cols, vals, x, y),
        8 => ell_block::<8>(cols, vals, x, y),
        _ => ell_block_dyn(w, cols, vals, x, y),
    }
}

impl EllMatrix {
    /// Convert a CSR matrix to padded fixed-width layout.
    pub fn from_csr(a: &Csr) -> Self {
        let rows = a.rows();
        let width = (0..rows)
            .map(|r| a.pattern().row_range(r).len())
            .max()
            .unwrap_or(0);
        let mut col_idx = vec![0u32; rows * width];
        let mut values = vec![0.0_f64; rows * width];
        for r in 0..rows {
            let range = a.pattern().row_range(r);
            let base = r * width;
            for (j, slot) in range.enumerate() {
                col_idx[base + j] = a.pattern().col_idx[slot];
                values[base + j] = a.values()[slot];
            }
        }
        Self {
            rows,
            cols: a.cols(),
            width,
            col_idx,
            values,
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Padded row width (widest source row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Stored slots including padding.
    pub fn padded_len(&self) -> usize {
        self.values.len()
    }

    /// `y = A x`, bit-identical to [`Csr::gather_into`] on the source
    /// matrix.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn gather_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "gather dimension mismatch");
        assert_eq!(y.len(), self.rows, "gather output dimension mismatch");
        if self.width == 0 {
            y.fill(0.0);
            return;
        }
        ell_dispatch(self.width, &self.col_idx, &self.values, x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(0, 2, 2.0);
        t.push(2, 0, 3.0);
        t.push(2, 1, 4.0);
        t.build()
    }

    #[test]
    fn build_and_get() {
        let a = sample();
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(1, 1), 0.0);
        assert_eq!(a.get(2, 1), 4.0);
    }

    #[test]
    fn duplicates_merge() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 1, 1.5);
        t.push(0, 1, 2.5);
        t.push(1, 0, -1.0);
        let a = t.build();
        assert_eq!(a.get(0, 1), 4.0);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn unsorted_input_ok() {
        let mut t = Triplets::new(3, 3);
        t.push(2, 2, 9.0);
        t.push(0, 1, 1.0);
        t.push(1, 0, 5.0);
        t.push(0, 0, 7.0);
        let a = t.build();
        assert_eq!(a.get(0, 0), 7.0);
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 0), 5.0);
        assert_eq!(a.get(2, 2), 9.0);
    }

    #[test]
    fn zero_values_dropped() {
        let mut t = Triplets::new(1, 1);
        t.push(0, 0, 0.0);
        let a = t.build();
        assert_eq!(a.nnz(), 0);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = sample();
        let y = a.matvec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![7.0, 0.0, 11.0]);
    }

    #[test]
    fn vecmat_matches_transpose_matvec() {
        let a = sample();
        let x = [1.0, -2.0, 0.5];
        let mut y1 = vec![0.0; 3];
        a.vecmat_into(&x, &mut y1);
        let y2 = a.transpose().matvec(&x);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-14);
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = sample();
        let att = a.transpose().transpose();
        assert_eq!(a.to_dense(), att.to_dense());
    }

    #[test]
    fn identity_matvec_is_noop() {
        let i = Csr::identity(4);
        let x = [4.0, 3.0, 2.0, 1.0];
        assert_eq!(i.matvec(&x), x.to_vec());
    }

    #[test]
    fn row_sums_work() {
        let a = sample();
        assert_eq!(a.row_sums(), vec![3.0, 0.0, 7.0]);
    }

    #[test]
    fn empty_rows_handled() {
        let t = Triplets::new(3, 2);
        let a = t.build();
        assert_eq!(a.rows(), 3);
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![0.0; 3]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_push_panics() {
        let mut t = Triplets::new(2, 2);
        t.push(2, 0, 1.0);
    }

    /// A pseudo-random (but deterministic) sparse matrix with rows wide
    /// enough to exercise the unrolled lanes and the remainder path.
    fn wide_random(rows: usize, cols: usize) -> Csr {
        let mut t = Triplets::new(rows, cols);
        let mut s = 0x9e37_79b9_u64;
        for r in 0..rows {
            let width = 1 + (r % 9);
            for k in 0..width {
                s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let c = (s >> 33) as usize % cols;
                let v = ((s >> 11) & 0xffff) as f64 / 65536.0 + 0.001;
                t.push(r, c, v);
                let _ = k;
            }
        }
        t.build()
    }

    #[test]
    fn gather_matches_matvec() {
        let a = wide_random(300, 300);
        let x: Vec<f64> = (0..300).map(|i| (i as f64 * 0.37).sin()).collect();
        let dense = a.matvec(&x);
        let mut y = vec![0.0; 300];
        a.gather_into(&x, &mut y);
        for (g, d) in y.iter().zip(&dense) {
            assert!((g - d).abs() <= 1e-12 * (1.0 + d.abs()), "{g} vs {d}");
        }
    }

    #[test]
    fn ell_gather_is_bit_identical_to_csr_gather() {
        // Widths 1..=9 exercise every monomorphized kernel plus the
        // dynamic fallback; the empty row exercises full-width padding.
        let a = wide_random(300, 300);
        let e = EllMatrix::from_csr(&a);
        assert_eq!(e.rows(), 300);
        assert_eq!(e.cols(), 300);
        assert_eq!(e.width(), 9);
        let x: Vec<f64> = (0..300).map(|i| (i as f64 * 0.61).cos()).collect();
        let mut csr = vec![0.0; 300];
        let mut ell = vec![1.0; 300];
        a.gather_into(&x, &mut csr);
        e.gather_into(&x, &mut ell);
        for (c, l) in csr.iter().zip(&ell) {
            assert_eq!(c.to_bits(), l.to_bits());
        }
    }

    #[test]
    fn ell_handles_empty_rows_and_empty_matrix() {
        let a = sample(); // row 1 is empty
        let e = EllMatrix::from_csr(&a);
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![9.0; 3];
        e.gather_into(&x, &mut y);
        assert_eq!(y, vec![1.0 + 6.0, 0.0, 3.0 + 8.0]);

        let empty = Triplets::new(4, 3).build();
        let e = EllMatrix::from_csr(&empty);
        assert_eq!(e.width(), 0);
        let mut y = vec![5.0; 4];
        e.gather_into(&x, &mut y);
        assert_eq!(y, vec![0.0; 4]);
    }
}
