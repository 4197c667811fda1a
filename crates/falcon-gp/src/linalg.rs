//! Minimal dense linear algebra: exactly what GP inference needs.
//!
//! A row-major `f64` matrix to factor, and its Cholesky factor stored as a
//! packed lower triangle with triangular solves and the `O(n²)` window
//! updates. Training sets are ≤ 20 points (the paper's observation
//! window), so everything here is `O(20³)` at worst — microseconds.

/// Errors from the dense linear-algebra kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes do not agree (non-square factorization input, or a
    /// vector whose length does not match the matrix dimension).
    DimensionMismatch,
    /// The matrix is not positive definite (within jitter tolerance).
    NotPositiveDefinite,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch => write!(f, "operand dimensions do not agree"),
            LinalgError::NotPositiveDefinite => write!(f, "matrix not positive definite"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Dense row-major matrix: the input of a from-scratch factorization.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite
    /// matrix; returns lower-triangular `L`. Errors with
    /// [`LinalgError::NotPositiveDefinite`] when the matrix is not positive
    /// definite (within jitter tolerance) and
    /// [`LinalgError::DimensionMismatch`] when it is not square — callers
    /// degrade (jitter-retry or skip the probe) instead of panicking.
    pub fn cholesky(&self) -> Result<Cholesky, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::DimensionMismatch);
        }
        let n = self.rows;
        let mut l = Vec::with_capacity(n * (n + 1) / 2);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[tri(i) + k] * l[tri(j) + k];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite);
                    }
                    l.push(sum.sqrt());
                } else {
                    l.push(sum / l[tri(j) + j]);
                }
            }
        }
        Ok(Cholesky { n, data: l })
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

/// Where row `i` of a packed lower triangle starts: entry `(i, j ≤ i)`
/// lives at `tri(i) + j`.
#[inline]
fn tri(i: usize) -> usize {
    i * (i + 1) / 2
}

/// The lower-triangular Cholesky factor `L` of an SPD matrix, packed row
/// by row: `n(n+1)/2` entries, `(i, j ≤ i)` at `i(i+1)/2 + j`. Its storage
/// grows by exactly one row when [`Cholesky::append_row`] borders it and
/// keeps that room through [`Cholesky::drop_row`], so a window that
/// appends and drops one observation per step settles at `(n+1)(n+2)/2`
/// entries and allocates nothing more.
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    n: usize,
    data: Vec<f64>,
}

impl Cholesky {
    /// A factor from its packed rows (`data.len() == n(n+1)/2`).
    pub(crate) fn from_packed(n: usize, data: Vec<f64>) -> Self {
        debug_assert_eq!(data.len(), tri(n));
        Cholesky { n, data }
    }

    /// Heap bytes of the packed storage (its capacity).
    pub(crate) fn memory_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f64>()
    }

    /// Row `i` up to and including the diagonal.
    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        &self.data[tri(i)..tri(i + 1)]
    }

    /// Extend the factor `self = L` of an SPD matrix `A` to the factor of
    /// the bordered matrix `[[A, k], [kᵀ, diag]]` in `O(n²)` instead of
    /// refactorizing in `O(n³)`.
    ///
    /// The new last row solves `L·l = k` by forward substitution and
    /// `λ = √(diag − l·l)`; both recurrences perform the same operations in
    /// the same order as [`Matrix::cholesky`] on the bordered matrix, so
    /// the result is bit-identical to a from-scratch factorization. On
    /// [`LinalgError::NotPositiveDefinite`] (the Schur complement
    /// `diag − l·l` is not positive) `self` is left untouched so the
    /// caller can retry with a jittered `diag`.
    pub fn append_row(&mut self, k: &[f64], diag: f64) -> Result<(), LinalgError> {
        let n = self.n;
        if k.len() != n {
            return Err(LinalgError::DimensionMismatch);
        }
        // The new row goes straight after the packed rows: room for
        // exactly one more row, kept once grown.
        let base = tri(n);
        self.data.reserve_exact(n + 1);
        self.data.resize(base + n + 1, 0.0);
        let (l, row) = self.data.split_at_mut(base);
        for j in 0..n {
            let (done, rest) = row.split_at_mut(j);
            let lj = &l[tri(j)..tri(j + 1)];
            let mut sum = k[j];
            for (r, ljt) in done.iter().zip(&lj[..j]) {
                sum -= r * ljt;
            }
            rest[0] = sum / lj[j];
        }
        let mut sum = diag;
        for &v in &row[..n] {
            sum -= v * v;
        }
        if sum <= 0.0 {
            self.data.truncate(base);
            return Err(LinalgError::NotPositiveDefinite);
        }
        row[n] = sum.sqrt();
        self.n = n + 1;
        Ok(())
    }

    /// Remove row/column `idx` from the factor `self = L` of an SPD matrix
    /// `A`, producing the factor of `A` with that observation deleted, in
    /// `O((n-idx)²)` instead of refactorizing in `O(n³)`.
    ///
    /// Deleting row/column `idx` of `A = L·Lᵀ` leaves the leading
    /// `idx×idx` block of `L` untouched; the trailing block must absorb
    /// the deleted column's coupling `c_j = L[j, idx]` (j > idx) as the
    /// rank-1 *update* `L₃₃·L₃₃ᵀ + c·cᵀ`, carried out with Givens-style
    /// rotations. Rank-1 updates (unlike downdates) are unconditionally
    /// numerically stable, so the result agrees with a from-scratch
    /// factorization to machine-precision accumulation (≈1e-12 relative;
    /// the proptests pin 1e-9) — but not bitwise, unlike
    /// [`Cholesky::append_row`].
    ///
    /// Errors leave `self` untouched: [`LinalgError::DimensionMismatch`]
    /// for an out-of-range `idx`, and [`LinalgError::NotPositiveDefinite`]
    /// if the factor's diagonal is not strictly positive (not a valid
    /// Cholesky factor).
    pub fn drop_row(&mut self, idx: usize) -> Result<(), LinalgError> {
        let n = self.n;
        if idx >= n {
            return Err(LinalgError::DimensionMismatch);
        }
        if (0..n).any(|i| self.row(i)[i] <= 0.0) {
            return Err(LinalgError::NotPositiveDefinite);
        }
        // Rank-1 update of the trailing block, in place before compacting:
        // the compacted entry (a, b ≥ idx) is the current (a+1, b+1), and
        // the coupling c_j is the current (idx+1+j, idx), so the column
        // about to be deleted holds c while the rotations rewrite it.
        let d = &mut self.data;
        let c_len = n - 1 - idx;
        for k in 0..c_len {
            let rk = idx + 1 + k;
            let ck = d[tri(rk) + idx];
            let lkk = d[tri(rk) + rk];
            let r = (lkk * lkk + ck * ck).sqrt();
            let (cos, sin) = (lkk / r, ck / r);
            d[tri(rk) + rk] = r;
            for j in (k + 1)..c_len {
                let row = tri(idx + 1 + j);
                let old = d[row + rk];
                let cj = d[row + idx];
                d[row + rk] = cos * old + sin * cj;
                d[row + idx] = cos * cj - sin * old;
            }
        }
        // Compact: drop row idx and column idx, shifting the remaining
        // entries forward (every source lies at or past its destination).
        let mut w = 0;
        for r in (0..n).filter(|&r| r != idx) {
            for col in (0..=r).filter(|&col| col != idx) {
                d[w] = d[tri(r) + col];
                w += 1;
            }
        }
        d.truncate(w);
        self.n = n - 1;
        Ok(())
    }

    /// Solve `L·x = b` (forward substitution) into a caller-owned buffer
    /// (sized to `n` and fully overwritten), so repeated solves allocate
    /// nothing once the buffer has grown to size. The one-lane case of
    /// [`Cholesky::solve_lower_lanes`].
    pub fn solve_lower_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<(), LinalgError> {
        if b.len() != self.n {
            return Err(LinalgError::DimensionMismatch);
        }
        x.clear();
        x.reserve_exact(b.len());
        x.extend_from_slice(b);
        self.solve_lower_lanes(x.as_chunks_mut::<1>().0)
    }

    /// Solve `L·x = b` in place for `L` right-hand sides at once, lane `l`
    /// of each row holding `b[l]` on entry and `x[l]` on return. Every lane
    /// runs the operations of a single forward substitution in its order
    /// (`sum = b_i`, then `sum -= L_ik·x_k` for `k < i`, then `/ L_ii`), so
    /// each is bit-identical to solving its column alone.
    pub fn solve_lower_lanes<const L: usize>(&self, b: &mut [[f64; L]]) -> Result<(), LinalgError> {
        if b.len() != self.n {
            return Err(LinalgError::DimensionMismatch);
        }
        for i in 0..self.n {
            let row = self.row(i);
            let (done, rest) = b.split_at_mut(i);
            let mut sum = rest[0];
            for (lik, xk) in row[..i].iter().zip(done.iter()) {
                for l in 0..L {
                    sum[l] -= lik * xk[l];
                }
            }
            rest[0] = sum.map(|v| v / row[i]);
        }
        Ok(())
    }

    /// Solve `Lᵀ·x = b` (back substitution on the transpose) into a
    /// caller-owned buffer, like [`Cholesky::solve_lower_into`].
    pub fn solve_lower_transpose_into(
        &self,
        b: &[f64],
        x: &mut Vec<f64>,
    ) -> Result<(), LinalgError> {
        let n = self.n;
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch);
        }
        if x.len() != n {
            x.clear();
            x.reserve_exact(n);
            x.resize(n, 0.0);
        }
        for i in (0..n).rev() {
            let (head, done) = x.split_at_mut(i + 1);
            let mut sum = b[i];
            // Column i below the diagonal: L[k][i] for k = i+1..n.
            for (k, xk) in ((i + 1)..n).zip(done.iter()) {
                sum -= self.data[tri(k) + i] * xk;
            }
            head[i] = sum / self.data[tri(i) + i];
        }
        Ok(())
    }

    /// Log-determinant of `A = L·Lᵀ`: `2·Σ ln L_ii`.
    pub fn log_det(&self) -> f64 {
        (0..self.n).map(|i| self.row(i)[i].ln()).sum::<f64>() * 2.0
    }
}

/// Entry `(r, c)` of `L`; zero above the diagonal.
impl std::ops::Index<(usize, usize)> for Cholesky {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.n && c < self.n);
        if c > r {
            &0.0
        } else {
            &self.data[tri(r) + c]
        }
    }
}

/// Dot product helper.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Square matrix from row-major entries.
    fn square(n: usize, data: &[f64]) -> Matrix {
        assert_eq!(data.len(), n * n);
        Matrix {
            rows: n,
            cols: n,
            data: data.to_vec(),
        }
    }

    fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    fn spd3() -> Matrix {
        // A = B·Bᵀ + I for B with full rank → SPD.
        square(3, &[4.0, 2.0, 1.0, 2.0, 5.0, 3.0, 1.0, 3.0, 6.0])
    }

    #[test]
    fn identity_cholesky_is_identity() {
        let l = identity(4).cholesky().unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(l[(i, j)], identity(4)[(i, j)], "({i},{j})");
            }
        }
        assert_eq!(l.data.len(), 10, "packed: n(n+1)/2 entries");
    }

    #[test]
    fn cholesky_reconstructs_matrix() {
        let a = spd3();
        let l = a.cholesky().unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let mut v = 0.0;
                for k in 0..3 {
                    v += l[(i, k)] * l[(j, k)];
                }
                assert!((v - a[(i, j)]).abs() < 1e-12, "({i},{j}): {v}");
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let m = square(2, &[1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert_eq!(m.cholesky(), Err(LinalgError::NotPositiveDefinite));
    }

    #[test]
    fn cholesky_rejects_non_square() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.cholesky(), Err(LinalgError::DimensionMismatch));
    }

    #[test]
    fn solves_reject_wrong_length() {
        let l = identity(3).cholesky().unwrap();
        assert_eq!(
            l.solve_lower_into(&[1.0], &mut Vec::new()),
            Err(LinalgError::DimensionMismatch)
        );
        assert_eq!(
            l.solve_lower_transpose_into(&[1.0, 2.0], &mut Vec::new()),
            Err(LinalgError::DimensionMismatch)
        );
    }

    #[test]
    fn triangular_solves_invert_spd_system() {
        // Solve A x = b via L then Lᵀ, check A·x = b.
        let a = spd3();
        let l = a.cholesky().unwrap();
        let b = [1.0, -2.0, 0.5];
        let mut y = Vec::new();
        l.solve_lower_into(&b, &mut y).unwrap();
        let mut x = Vec::new();
        l.solve_lower_transpose_into(&y, &mut x).unwrap();
        for (i, bi) in b.iter().enumerate() {
            let back: f64 = (0..3).map(|j| a[(i, j)] * x[j]).sum();
            assert!((back - bi).abs() < 1e-10, "{back} vs {bi}");
        }
    }

    #[test]
    fn log_det_matches_direct_computation() {
        let a = spd3();
        let l = a.cholesky().unwrap();
        // det(A) for this 3x3:
        let det: f64 = 4.0 * (5.0 * 6.0 - 9.0) - 2.0 * (2.0 * 6.0 - 3.0) + 1.0 * (6.0 - 5.0);
        assert!((l.log_det() - det.ln()).abs() < 1e-10);
    }

    #[test]
    fn append_row_matches_full_factorization_bitwise() {
        // Factor the 2×2 leading block, append the third row, and compare
        // against factoring the full 3×3 directly: identical bits.
        let a = spd3();
        let full = a.cholesky().unwrap();
        let lead = square(2, &[a[(0, 0)], a[(0, 1)], a[(1, 0)], a[(1, 1)]]);
        let mut grown = lead.cholesky().unwrap();
        grown
            .append_row(&[a[(2, 0)], a[(2, 1)]], a[(2, 2)])
            .unwrap();
        assert_eq!(grown, full);
    }

    #[test]
    fn append_row_rejects_bad_inputs_without_mutating() {
        let mut l = spd3().cholesky().unwrap();
        let before = l.clone();
        assert_eq!(
            l.append_row(&[1.0], 1.0),
            Err(LinalgError::DimensionMismatch)
        );
        // A bordered matrix that is not SPD: new diagonal too small.
        assert_eq!(
            l.append_row(&[1.0, 3.0, 6.0], 0.0),
            Err(LinalgError::NotPositiveDefinite)
        );
        assert_eq!(l, before, "failed append must leave the factor intact");
    }

    #[test]
    fn drop_row_matches_refactorization_of_reduced_matrix() {
        let a = spd3();
        for idx in 0..3 {
            let mut dropped = a.cholesky().unwrap();
            dropped.drop_row(idx).unwrap();
            // Reference: factor A with row/col idx deleted, from scratch.
            let keep: Vec<usize> = (0..3).filter(|&i| i != idx).collect();
            let mut reduced = Matrix::zeros(2, 2);
            for (r, &i) in keep.iter().enumerate() {
                for (c, &j) in keep.iter().enumerate() {
                    reduced[(r, c)] = a[(i, j)];
                }
            }
            let expect = reduced.cholesky().unwrap();
            for r in 0..2 {
                for c in 0..=r {
                    assert!(
                        (dropped[(r, c)] - expect[(r, c)]).abs() < 1e-12,
                        "idx {idx}, L[({r},{c})]: {} vs {}",
                        dropped[(r, c)],
                        expect[(r, c)]
                    );
                }
            }
        }
    }

    #[test]
    fn drop_then_append_round_trips_dimensions() {
        let mut l = spd3().cholesky().unwrap();
        assert_eq!((l.n, l.data.capacity()), (3, 6), "exactly sized");
        l.drop_row(0).unwrap();
        assert_eq!((l.n, l.data.len()), (2, 3));
        l.append_row(&[0.1, 0.2], 5.0).unwrap();
        assert_eq!((l.n, l.data.len()), (3, 6));
        // A window step (append, then drop) stays in the storage it has.
        for _ in 0..5 {
            l.append_row(&[0.1, 0.2, 0.3], 5.0).unwrap();
            l.drop_row(0).unwrap();
        }
        assert_eq!((l.n, l.data.capacity()), (3, 10));
    }

    #[test]
    fn drop_row_rejects_bad_inputs_without_mutating() {
        let mut l = spd3().cholesky().unwrap();
        let before = l.clone();
        assert_eq!(l.drop_row(3), Err(LinalgError::DimensionMismatch));
        assert_eq!(l, before);
        let zeros = Cholesky::from_packed(2, vec![0.0; 3]); // not a factor
        let mut bad = zeros.clone();
        assert_eq!(bad.drop_row(0), Err(LinalgError::NotPositiveDefinite));
        assert_eq!(bad, zeros);
    }

    #[test]
    fn solve_lower_into_overwrites_a_stale_buffer() {
        let l = spd3().cholesky().unwrap();
        let b = [1.0, -2.0, 0.5];
        let mut expect = Vec::new();
        l.solve_lower_into(&b, &mut expect).unwrap();
        let mut buf = vec![9.0; 7]; // stale, over-sized: must be cleared
        l.solve_lower_into(&b, &mut buf).unwrap();
        assert_eq!(buf, expect);
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }
}
