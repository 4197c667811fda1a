//! Covariance kernels.

/// Reusable buffer for [`Matern52::eval_row`]: the squared-distance pass is
/// staged here so the distance loop stays a tight, auto-vectorizable sweep
/// over flattened point storage, separate from the transcendental pass.
#[derive(Debug, Clone, Default)]
pub struct KernelRowScratch {
    d2: Vec<f64>,
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
                *d = p.iter().zip(xq).map(|(u, v)| (u - v) * (u - v)).sum();
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
        let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
        let r = d2.sqrt();
        let s = 5.0_f64.sqrt() * r / self.length_scale;
        self.variance * (1.0 + s + s * s / 3.0) * (-s).exp()
    }

    /// Prior variance at a point (`k(x, x)`).
    pub fn diag(&self) -> f64 {
        self.variance
    }

    /// Fused kernel row `k(xq, X)` against flattened row-major point
    /// storage (`n×dim`), written into `out` (`n` entries): vectorized
    /// squared distances, then the radial profile, with the same value per
    /// element as [`Matern52::eval`].
    pub fn eval_row(
        &self,
        xq: &[f64],
        xs_flat: &[f64],
        dim: usize,
        scratch: &mut KernelRowScratch,
        out: &mut [f64],
    ) {
        if scratch.d2.len() != out.len() {
            scratch.d2.clear();
            scratch.d2.resize(out.len(), 0.0);
        }
        squared_distances(xq, xs_flat, dim, &mut scratch.d2);
        // Same per-element expression (and rounding) as `eval`, applied as
        // one streaming pass over the staged distances.
        for (o, &d2) in out.iter_mut().zip(&scratch.d2) {
            let r = d2.sqrt();
            let s = 5.0_f64.sqrt() * r / self.length_scale;
            *o = self.variance * (1.0 + s + s * s / 3.0) * (-s).exp();
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
        // swapping predict onto it cannot perturb decision sequences.
        let mut scratch = KernelRowScratch::default();
        let k = Matern52::new(0.9, 5.1);
        for dim in [1usize, 2, 3] {
            let n = 9;
            let flat: Vec<f64> = (0..n * dim).map(|i| (i as f64) * 0.73 - 4.0).collect();
            let xq: Vec<f64> = (0..dim).map(|i| i as f64 + 0.31).collect();
            let mut out = vec![0.0; n];
            k.eval_row(&xq, &flat, dim, &mut scratch, &mut out);
            for (i, p) in flat.chunks_exact(dim).enumerate() {
                assert_eq!(out[i], k.eval(&xq, p), "dim {dim}, point {i}");
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
