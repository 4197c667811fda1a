//! Covariance kernels.

/// Integral distances below this are served from the 1-D profile table of
/// [`KernelRowScratch`].
const PROFILE_TABLE_LEN: usize = 1024;

/// Reusable buffers for [`Matern52::eval_row`].
///
/// The squared-distance pass is staged in `d2` so the distance loop stays
/// a tight, auto-vectorizable sweep over flattened point storage, separate
/// from the transcendental pass. A 1-D row under the same kernel as the
/// last one reads the radial profile at integral distances from `table`
/// instead: candidate and training points of a concurrency search sit on
/// the integer lattice, so posterior queries keep revisiting the same few
/// dozen distances, and each costs an `exp` only on first touch.
#[derive(Debug, Clone, Default)]
pub struct KernelRowScratch {
    d2: Vec<f64>,
    /// `table[t]` is `k` at distance `t`, or NaN while untouched; it grows
    /// to the largest distance touched, below [`PROFILE_TABLE_LEN`].
    table: Vec<f64>,
    /// `(variance, length_scale)` bits of the kernel `table` holds.
    key: (u64, u64),
}

/// Squared Euclidean distance, in the summation order every kernel entry
/// is built from.
pub(crate) fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// The Matérn 5/2 radial terms at squared distance `d2`: the polynomial
/// `1 + s + s²/3` and the decay `exp(−s)` for `s = √5·r/ℓ`. A kernel entry
/// is `(σ²·poly)·decay`; the terms depend on ℓ only, so fits sharing a
/// length-scale share them.
pub(crate) fn radial(length_scale: f64, d2: f64) -> (f64, f64) {
    let r = d2.sqrt();
    let s = 5.0_f64.sqrt() * r / length_scale;
    (1.0 + s + s * s / 3.0, (-s).exp())
}

/// Squared distances from `xq` to every point of `xs_flat` (row-major
/// `n×dim`), written into `out`. Specialized per dimension so the 1-D and
/// 2-D hot paths (concurrency-only and concurrency×parallelism searches)
/// compile to branch-free streaming loops.
fn squared_distances(xq: &[f64], xs_flat: &[f64], dim: usize, out: &mut [f64]) {
    debug_assert_eq!(out.len() * dim, xs_flat.len());
    match dim {
        1 => {
            let q = xq[0];
            for (d, &x) in out.iter_mut().zip(xs_flat) {
                let t = x - q;
                *d = t * t;
            }
        }
        2 => {
            let (q0, q1) = (xq[0], xq[1]);
            for (d, p) in out.iter_mut().zip(xs_flat.chunks_exact(2)) {
                let (a, b) = (p[0] - q0, p[1] - q1);
                *d = a * a + b * b;
            }
        }
        _ => {
            for (d, p) in out.iter_mut().zip(xs_flat.chunks_exact(dim)) {
                *d = squared_distance(p, xq);
            }
        }
    }
}

/// Matérn 5/2 kernel, the standard choice for Bayesian optimization
/// surrogates (less smooth than squared-exponential, more robust to model
/// mismatch):
/// `k(r) = σ² (1 + √5 r/ℓ + 5r²/(3ℓ²)) exp(-√5 r/ℓ)`.
#[derive(Debug, Clone, Copy)]
pub struct Matern52 {
    /// Signal variance σ².
    pub variance: f64,
    /// Length scale ℓ.
    pub length_scale: f64,
}

impl Matern52 {
    /// New Matérn 5/2 kernel. Non-positive or non-finite hyperparameters
    /// are clamped to a tiny positive floor so optimizer probe paths
    /// degrade instead of panicking.
    pub fn new(variance: f64, length_scale: f64) -> Self {
        Matern52 {
            variance: variance.max(f64::EPSILON),
            length_scale: length_scale.max(f64::EPSILON),
        }
    }

    /// Covariance between two points.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.at_squared_distance(squared_distance(a, b))
    }

    /// Covariance at squared distance `d2`.
    fn at_squared_distance(&self, d2: f64) -> f64 {
        let (poly, decay) = radial(self.length_scale, d2);
        self.variance * poly * decay
    }

    /// Prior variance at a point (`k(x, x)`).
    pub fn diag(&self) -> f64 {
        self.variance
    }

    /// Fused kernel row `k(xq, X)` against flattened row-major point
    /// storage (`n×dim`), written into `out` (`n` entries), with the same
    /// value per element as [`Matern52::eval`]: vectorized squared
    /// distances, then the radial profile. From the second 1-D row under
    /// one kernel on, integral distances are read from the scratch's
    /// profile table instead.
    pub fn eval_row(
        &self,
        xq: &[f64],
        xs_flat: &[f64],
        dim: usize,
        scratch: &mut KernelRowScratch,
        out: &mut [f64],
    ) {
        if dim == 1 {
            let key = (self.variance.to_bits(), self.length_scale.to_bits());
            if scratch.key == key {
                self.eval_row_from_table(xq[0], xs_flat, &mut scratch.table, out);
                return;
            }
            // A new kernel: its table starts empty and later rows fill it;
            // this row streams, so a one-off query pays nothing for it.
            scratch.key = key;
            scratch.table.clear();
        }
        if scratch.d2.len() != out.len() {
            scratch.d2.clear();
            scratch.d2.resize(out.len(), 0.0);
        }
        squared_distances(xq, xs_flat, dim, &mut scratch.d2);
        for (o, &d2) in out.iter_mut().zip(&scratch.d2) {
            *o = self.at_squared_distance(d2);
        }
    }

    /// The 1-D row against query `q`, reading `k` at integral distances
    /// below [`PROFILE_TABLE_LEN`] from `table` (this kernel's) and filling
    /// untouched (NaN) slots from the same expression as `eval`.
    fn eval_row_from_table(&self, q: f64, xs: &[f64], table: &mut Vec<f64>, out: &mut [f64]) {
        for (o, &x) in out.iter_mut().zip(xs) {
            let t = x - q;
            let a = t.abs();
            // Integral and below the bound (NaN fails the bound).
            *o = if a < PROFILE_TABLE_LEN as f64 && (a as usize) as f64 == a {
                let i = a as usize;
                if i >= table.len() {
                    table.resize(i + 1, f64::NAN);
                }
                let slot = &mut table[i];
                if slot.is_nan() {
                    *slot = self.at_squared_distance(t * t);
                }
                *slot
            } else {
                self.at_squared_distance(t * t)
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matern_is_variance_at_zero_distance() {
        let k = Matern52::new(1.7, 1.0);
        assert!((k.eval(&[0.0], &[0.0]) - 1.7).abs() < 1e-12);
        assert_eq!(k.diag(), 1.7);
    }

    #[test]
    fn longer_length_scale_means_slower_decay() {
        let short = Matern52::new(1.0, 0.5);
        let long = Matern52::new(1.0, 5.0);
        let near = long.eval(&[0.0], &[1.0]);
        let far = long.eval(&[0.0], &[5.0]);
        assert!(near > far && far > 0.0);
        assert!(long.eval(&[0.0], &[2.0]) > short.eval(&[0.0], &[2.0]));
    }

    #[test]
    fn eval_row_bit_identical_to_per_point_eval() {
        // The fused row must agree with `eval` per element *bitwise*, so
        // swapping predict onto it cannot perturb decision sequences. One
        // scratch serves alternating kernels, so a profile table kept
        // across a kernel change would show.
        let mut scratch = KernelRowScratch::default();
        let kernels = [Matern52::new(0.9, 5.1), Matern52::new(2.3, 40.0)];
        let mut check = |k: &Matern52, xq: &[f64], flat: &[f64], dim: usize| {
            let mut out = vec![0.0; flat.len() / dim];
            k.eval_row(xq, flat, dim, &mut scratch, &mut out);
            for (i, p) in flat.chunks_exact(dim).enumerate() {
                assert_eq!(
                    out[i].to_bits(),
                    k.eval(xq, p).to_bits(),
                    "dim {dim}, query {xq:?}, point {p:?}, kernel {k:?}"
                );
            }
        };
        for k in kernels.iter().chain(&kernels) {
            for dim in [1usize, 2, 3] {
                let n = 9;
                let flat: Vec<f64> = (0..n * dim).map(|i| (i as f64) * 0.73 - 4.0).collect();
                let xq: Vec<f64> = (0..dim).map(|i| i as f64 + 0.31).collect();
                check(k, &xq, &flat, dim);
            }
            // 1-D integer lattice reaching distance 1,100 on both sides of
            // the query (past the table's bound), with half-integers.
            let lattice: Vec<f64> = (-1100..=1100)
                .flat_map(|i| [f64::from(i), f64::from(i) + 0.5])
                .collect();
            for q in [0.0, 7.0, -3.0, 2.5, 1100.0] {
                check(k, &[q], &lattice, 1);
            }
        }
    }

    #[test]
    fn matern_clamps_nonpositive_hyperparameters() {
        let m = Matern52::new(0.0, -1.0);
        assert!(m.variance > 0.0 && m.length_scale > 0.0);
        assert!(m.eval(&[0.0], &[1.0]).is_finite());
    }
}
