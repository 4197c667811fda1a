//! Covariance kernels.

/// Integral distances below this are served from the 1-D profile table of
/// [`KernelRowScratch`].
const PROFILE_TABLE_LEN: usize = 1024;

/// Reusable buffers for [`Matern52::eval_rows`].
///
/// The squared-distance pass is staged in `d2` so the distance loop stays
/// a tight, auto-vectorizable sweep over flattened point storage, separate
/// from the transcendental pass. A 1-D row under the same kernel as the
/// last one, with points and queries on the integer lattice, reads the
/// radial profile from `table` by integer distance instead: candidate and
/// training points of a concurrency search sit there, so posterior queries
/// keep revisiting the same few dozen distances, and each costs an `exp`
/// only on first touch.
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

    /// `k` at 1-D offset `t`, out of line: inlined, the compiler may
    /// compute its `exp` ahead of the table lookup that exists to skip it.
    #[inline(never)]
    fn at_offset(&self, t: f64) -> f64 {
        self.at_squared_distance(t * t)
    }

    /// Prior variance at a point (`k(x, x)`).
    pub fn diag(&self) -> f64 {
        self.variance
    }

    /// Fused kernel rows `k(q_l, X)` of `L` queries against flattened
    /// row-major point storage (`n×dim`), written into `out` as `n` rows of
    /// `L` lanes, with the same value per element as [`Matern52::eval`]:
    /// vectorized squared distances, then the radial profile. From the
    /// second call under one kernel on, a 1-D row whose points and queries
    /// are integers within ±512 reads the scratch's profile table instead.
    pub fn eval_rows<const L: usize>(
        &self,
        queries: [&[f64]; L],
        xs_flat: &[f64],
        dim: usize,
        scratch: &mut KernelRowScratch,
        out: &mut [[f64; L]],
    ) {
        if dim == 1 {
            let key = (self.variance.to_bits(), self.length_scale.to_bits());
            let qs = queries.map(|q| q[0]);
            // Points and queries that are integers within ±512 put every
            // offset on an integer index below the table's bound (NaN fails
            // the bound). Other rows stream.
            let half = (PROFILE_TABLE_LEN / 2) as f64;
            let on_lattice = |v: f64| v.abs() < half && (v as i64) as f64 == v;
            if scratch.key == key && xs_flat.iter().chain(&qs).all(|&v| on_lattice(v)) {
                let (table, qi) = (&mut scratch.table, qs.map(|q| q as i64));
                for (o, &x) in out.iter_mut().zip(xs_flat) {
                    let xi = x as i64;
                    for l in 0..L {
                        let i = (xi - qi[l]).unsigned_abs() as usize;
                        if i >= table.len() {
                            table.resize(i + 1, f64::NAN);
                        }
                        let slot = &mut table[i];
                        if slot.is_nan() {
                            *slot = self.at_offset(x - qs[l]);
                        }
                        o[l] = *slot;
                    }
                }
                return;
            }
            if scratch.key != key {
                // A new kernel: its table starts empty and later calls
                // fill it; this one streams, so a one-off query pays
                // nothing for it.
                scratch.key = key;
                scratch.table.clear();
            }
        }
        if scratch.d2.len() != out.len() {
            scratch.d2.clear();
            scratch.d2.resize(out.len(), 0.0);
        }
        for (l, xq) in queries.iter().enumerate() {
            squared_distances(xq, xs_flat, dim, &mut scratch.d2);
            for (o, &d2) in out.iter_mut().zip(&scratch.d2) {
                o[l] = self.at_squared_distance(d2);
            }
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
    fn eval_rows_bit_identical_to_per_point_eval() {
        // Every lane of the fused rows must agree with `eval` per element
        // *bitwise*, so swapping predict onto it cannot perturb decision
        // sequences. One scratch serves alternating kernels and lane
        // counts, so a profile table kept across a kernel change would
        // show.
        let mut scratch = KernelRowScratch::default();
        let kernels = [Matern52::new(0.9, 5.1), Matern52::new(2.3, 40.0)];
        let mut check = |k: &Matern52, qs: [&[f64]; 3], flat: &[f64], dim: usize| {
            let mut one = vec![[0.0; 1]; flat.len() / dim];
            let mut three = vec![[0.0; 3]; flat.len() / dim];
            k.eval_rows([qs[0]], flat, dim, &mut scratch, &mut one);
            k.eval_rows(qs, flat, dim, &mut scratch, &mut three);
            for (i, p) in flat.chunks_exact(dim).enumerate() {
                let want = k.eval(qs[0], p).to_bits();
                assert_eq!(one[i][0].to_bits(), want, "dim {dim}, {qs:?}, {p:?}, {k:?}");
                for (l, q) in qs.iter().enumerate() {
                    let want = k.eval(q, p).to_bits();
                    assert_eq!(
                        three[i][l].to_bits(),
                        want,
                        "dim {dim}, {q:?}, {p:?}, {k:?}"
                    );
                }
            }
        };
        for k in kernels.iter().chain(&kernels) {
            for dim in [1usize, 2, 3] {
                let n = 9;
                let flat: Vec<f64> = (0..n * dim).map(|i| (i as f64) * 0.73 - 4.0).collect();
                let qs: Vec<Vec<f64>> = (0..3)
                    .map(|l| (0..dim).map(|i| (i + l) as f64 + 0.31).collect())
                    .collect();
                check(k, [&qs[0], &qs[1], &qs[2]], &flat, dim);
            }
            // 1-D integer lattice reaching distance 1,100 on both sides of
            // the queries (past the table's bound), with half-integers.
            let lattice: Vec<f64> = (-1100..=1100)
                .flat_map(|i| [f64::from(i), f64::from(i) + 0.5])
                .collect();
            for q in [0.0, 7.0, -3.0, 2.5, 1100.0] {
                check(k, [&[q], &[q + 1.0], &[-q - 0.5]], &lattice, 1);
            }
            // All-integral rows, reaching inside and past the table's bound.
            for reach in [40, 1100] {
                let ints: Vec<f64> = (-reach..=reach).map(f64::from).collect();
                for q in [0.0, 7.0, -3.0] {
                    check(k, [&[q], &[q + 1.0], &[-q - 2.0]], &ints, 1);
                }
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
