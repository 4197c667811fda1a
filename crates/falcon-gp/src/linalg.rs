//! Minimal dense linear algebra: exactly what GP inference needs.
//!
//! Row-major `f64` matrices with Cholesky factorization and triangular
//! solves. Training sets are ≤ 20 points (the paper's observation window),
//! so everything here is `O(20³)` at worst — microseconds.

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

/// Dense row-major matrix.
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
    pub fn cholesky(&self) -> Result<Matrix, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::DimensionMismatch);
        }
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// Extend the Cholesky factor `self = L` of an SPD matrix `A` to the
    /// factor of the bordered matrix `[[A, k], [kᵀ, diag]]` in `O(n²)`
    /// instead of refactorizing in `O(n³)`.
    ///
    /// The new last row solves `L·l = k` by forward substitution and
    /// `λ = √(diag − l·l)`; both recurrences perform the same operations in
    /// the same order as [`Matrix::cholesky`] on the bordered matrix, so
    /// the result is bit-identical to a from-scratch factorization. On
    /// [`LinalgError::NotPositiveDefinite`] (the Schur complement
    /// `diag − l·l` is not positive) `self` is left untouched so the
    /// caller can retry with a jittered `diag`.
    pub fn cholesky_append_row(&mut self, k: &[f64], diag: f64) -> Result<(), LinalgError> {
        if self.rows != self.cols || k.len() != self.rows {
            return Err(LinalgError::DimensionMismatch);
        }
        let n = self.rows;
        let m = n + 1;
        // Stage the new row just past the n×n storage (the room the grown
        // factor needs anyway) and only reshape on success, so a steady
        // append/drop cycle allocates nothing.
        self.data.resize(m * m, 0.0);
        let (l, row) = self.data.split_at_mut(n * n);
        for j in 0..n {
            let (done, rest) = row.split_at_mut(j);
            let mut sum = k[j];
            for (r, ljt) in done.iter().zip(&l[j * n..j * n + j]) {
                sum -= r * ljt;
            }
            rest[0] = sum / l[j * n + j];
        }
        let mut sum = diag;
        for &v in &row[..n] {
            sum -= v * v;
        }
        if sum <= 0.0 {
            self.data.truncate(n * n);
            return Err(LinalgError::NotPositiveDefinite);
        }
        row[n] = sum.sqrt();

        // Reshape from n×n to (n+1)×(n+1) in place: move the staged row
        // last, shift the old rows to the wider stride, and zero the new
        // strictly-upper column.
        self.data.copy_within(n * n..n * n + m, n * m);
        for i in (1..n).rev() {
            self.data.copy_within(i * n..(i + 1) * n, i * m);
        }
        for i in 0..n {
            self.data[i * m + n] = 0.0;
        }
        self.rows = m;
        self.cols = m;
        Ok(())
    }

    /// Remove row/column `idx` from the Cholesky factor `self = L` of an
    /// SPD matrix `A`, producing the factor of `A` with that observation
    /// deleted, in `O((n-idx)²)` instead of refactorizing in `O(n³)`.
    ///
    /// Deleting row/column `idx` of `A = L·Lᵀ` leaves the leading
    /// `idx×idx` block of `L` untouched; the trailing block must absorb
    /// the deleted column's coupling `c_j = L[j, idx]` (j > idx) as the
    /// rank-1 *update* `L₃₃·L₃₃ᵀ + c·cᵀ`, carried out with Givens-style
    /// rotations. Rank-1 updates (unlike downdates) are unconditionally
    /// numerically stable, so the result agrees with a from-scratch
    /// factorization to machine-precision accumulation (≈1e-12 relative;
    /// the proptests pin 1e-9) — but not bitwise, unlike
    /// [`Matrix::cholesky_append_row`].
    ///
    /// Errors leave `self` untouched: [`LinalgError::DimensionMismatch`]
    /// for a non-square factor or out-of-range `idx`, and
    /// [`LinalgError::NotPositiveDefinite`] if the factor's diagonal is
    /// not strictly positive (not a valid Cholesky factor).
    pub fn cholesky_drop_row(&mut self, idx: usize) -> Result<(), LinalgError> {
        let n = self.rows;
        if self.rows != self.cols || idx >= n {
            return Err(LinalgError::DimensionMismatch);
        }
        if (0..n).any(|i| self[(i, i)] <= 0.0) {
            return Err(LinalgError::NotPositiveDefinite);
        }
        let m = n - 1;
        // Stage the coupling column of the deleted row, below the
        // diagonal, just past the n×n storage: the buffer keeps that
        // capacity once grown, so a steady append/drop cycle allocates
        // nothing.
        for j in (idx + 1)..n {
            let v = self.data[j * n + idx];
            self.data.push(v);
        }
        // Compact the row-major storage in place: drop row idx and column
        // idx, shifting the remaining entries forward.
        let mut w = 0;
        for r in 0..n {
            if r == idx {
                continue;
            }
            for col in 0..n {
                if col == idx {
                    continue;
                }
                self.data[w] = self.data[r * n + col];
                w += 1;
            }
        }
        self.rows = m;
        self.cols = m;
        // Rank-1 update of the trailing block (rows/cols idx.. of the
        // compacted factor): L̃·L̃ᵀ = L₃₃·L₃₃ᵀ + c·cᵀ.
        let (l, c) = self.data.split_at_mut(n * n);
        for k in 0..c.len() {
            let rk = idx + k;
            let lkk = l[rk * m + rk];
            let r = (lkk * lkk + c[k] * c[k]).sqrt();
            let (cos, sin) = (lkk / r, c[k] / r);
            l[rk * m + rk] = r;
            for (j, cj) in c.iter_mut().enumerate().skip(k + 1) {
                let v = &mut l[(idx + j) * m + rk];
                let old = *v;
                *v = cos * old + sin * *cj;
                *cj = cos * *cj - sin * old;
            }
        }
        self.data.truncate(m * m);
        Ok(())
    }

    /// Solve `L·x = b` for lower-triangular `L` (forward substitution) into
    /// a caller-owned buffer (resized to `n` and fully overwritten), so
    /// repeated solves allocate nothing once the buffer has grown to size.
    /// The one-lane case of [`Matrix::solve_lower_lanes`].
    pub fn solve_lower_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<(), LinalgError> {
        if b.len() != self.rows {
            return Err(LinalgError::DimensionMismatch);
        }
        x.clear();
        x.extend_from_slice(b);
        self.solve_lower_lanes(x.as_chunks_mut::<1>().0)
    }

    /// Solve `L·x = b` in place for `L` right-hand sides at once, lane `l`
    /// of each row holding `b[l]` on entry and `x[l]` on return. Every lane
    /// runs the operations of a single forward substitution in its order
    /// (`sum = b_i`, then `sum -= L_ik·x_k` for `k < i`, then `/ L_ii`), so
    /// each is bit-identical to solving its column alone.
    pub fn solve_lower_lanes<const L: usize>(&self, b: &mut [[f64; L]]) -> Result<(), LinalgError> {
        let n = self.rows;
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch);
        }
        for (i, row) in self.data.chunks_exact(n.max(1)).take(n).enumerate() {
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

    /// Solve `Lᵀ·x = b` for lower-triangular `L` (back substitution on the
    /// transpose) into a caller-owned buffer, like
    /// [`Matrix::solve_lower_into`].
    pub fn solve_lower_transpose_into(
        &self,
        b: &[f64],
        x: &mut Vec<f64>,
    ) -> Result<(), LinalgError> {
        let n = self.rows;
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch);
        }
        if x.len() != n {
            x.clear();
            x.resize(n, 0.0);
        }
        for i in (0..n).rev() {
            let (head, done) = x.split_at_mut(i + 1);
            let mut sum = b[i];
            // Column i below the diagonal: L[k][i] for k = i+1..n.
            let below = self.data.iter().skip((i + 1) * n + i).step_by(n);
            for (lki, xk) in below.zip(done.iter()) {
                sum -= lki * xk;
            }
            head[i] = sum / self.data[i * n + i];
        }
        Ok(())
    }

    /// Log-determinant of `A = L·Lᵀ` given its Cholesky factor `self = L`:
    /// `2·Σ ln L_ii`.
    pub fn cholesky_log_det(&self) -> f64 {
        (0..self.rows).map(|i| self[(i, i)].ln()).sum::<f64>() * 2.0
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
        assert_eq!(l, identity(4));
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
        let l = identity(3);
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
        assert!((l.cholesky_log_det() - det.ln()).abs() < 1e-10);
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
            .cholesky_append_row(&[a[(2, 0)], a[(2, 1)]], a[(2, 2)])
            .unwrap();
        assert_eq!(grown, full);
    }

    #[test]
    fn append_row_rejects_bad_inputs_without_mutating() {
        let mut l = spd3().cholesky().unwrap();
        let before = l.clone();
        assert_eq!(
            l.cholesky_append_row(&[1.0], 1.0),
            Err(LinalgError::DimensionMismatch)
        );
        // A bordered matrix that is not SPD: new diagonal too small.
        assert_eq!(
            l.cholesky_append_row(&[1.0, 3.0, 6.0], 0.0),
            Err(LinalgError::NotPositiveDefinite)
        );
        assert_eq!(l, before, "failed append must leave the factor intact");
    }

    #[test]
    fn drop_row_matches_refactorization_of_reduced_matrix() {
        let a = spd3();
        for idx in 0..3 {
            let mut dropped = a.cholesky().unwrap();
            dropped.cholesky_drop_row(idx).unwrap();
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
        l.cholesky_drop_row(0).unwrap();
        assert_eq!((l.rows, l.cols, l.data.len()), (2, 2, 4));
        l.cholesky_append_row(&[0.1, 0.2], 5.0).unwrap();
        assert_eq!((l.rows, l.cols, l.data.len()), (3, 3, 9));
    }

    #[test]
    fn drop_row_rejects_bad_inputs_without_mutating() {
        let mut l = spd3().cholesky().unwrap();
        let before = l.clone();
        assert_eq!(l.cholesky_drop_row(3), Err(LinalgError::DimensionMismatch));
        assert_eq!(l, before);
        let mut bad = Matrix::zeros(2, 2); // zero diagonal: not a factor
        assert_eq!(
            bad.cholesky_drop_row(0),
            Err(LinalgError::NotPositiveDefinite)
        );
        assert_eq!(bad, Matrix::zeros(2, 2));
        let mut rect = Matrix::zeros(2, 3);
        assert_eq!(
            rect.cholesky_drop_row(0),
            Err(LinalgError::DimensionMismatch)
        );
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
