//! Gaussian-process regression.

use crate::kernel::{radial, squared_distance, KernelRowScratch, Matern52};
use crate::linalg::{dot, Cholesky, LinalgError};
use crate::{resize_exact, vec_bytes};

/// Errors from GP fitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpError {
    /// No training data.
    Empty,
    /// Kernel matrix not positive definite even after jitter.
    NotPositiveDefinite,
    /// Dimension mismatch between training points.
    DimensionMismatch,
}

impl std::fmt::Display for GpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpError::Empty => write!(f, "no training data"),
            GpError::NotPositiveDefinite => write!(f, "kernel matrix not positive definite"),
            GpError::DimensionMismatch => write!(f, "training points have mixed dimensions"),
        }
    }
}

impl std::error::Error for GpError {}

/// Length-scale fractions of the data span [`GpRegressor::fit_auto`] tries.
const LENGTH_SCALE_FRACS: [f64; 4] = [0.1, 0.2, 0.4, 0.8];
/// Signal-variance multiples of the target variance it tries per
/// length-scale.
const VARIANCE_MULS: [f64; 3] = [0.5, 1.0, 2.0];
/// Lanes of the `fit_auto` grid, ℓ-major and σ²-minor.
const GRID: usize = LENGTH_SCALE_FRACS.len() * VARIANCE_MULS.len();

/// A fitted Gaussian-process regressor with a Matérn 5/2 kernel and
/// Gaussian observation noise.
///
/// The targets are internally centred on their mean (a constant mean
/// function), which matters for BO: the posterior far from data reverts to
/// the mean utility rather than to zero.
///
/// # Examples
///
/// ```
/// use falcon_gp::{GpRegressor, Matern52, Points, PredictScratch};
///
/// let xs: Vec<f64> = (0..6).map(f64::from).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| (x - 3.0).powi(2) * -1.0).collect();
/// let gp = GpRegressor::fit(Points::new(&xs, 1), &ys, Matern52::new(5.0, 2.0), 1e-4).unwrap();
/// let mut scratch = PredictScratch::default();
/// let (mean_at_peak, _) = gp.predict_into(&[3.0], &mut scratch);
/// let (mean_at_edge, _) = gp.predict_into(&[0.0], &mut scratch);
/// assert!(mean_at_peak > mean_at_edge);
/// ```
#[derive(Debug, Clone)]
pub struct GpRegressor {
    /// The training points, flattened row-major (`n×dim`): the storage
    /// [`Matern52::eval_rows`] streams over.
    x_flat: Vec<f64>,
    /// Input dimension (1 for concurrency-only, 2 for cc×p).
    dim: usize,
    /// Raw (uncentred) targets: [`GpRegressor::extend`] recomputes the
    /// mean over these so an incrementally-grown model centres exactly
    /// like a from-scratch fit.
    y_raw: Vec<f64>,
    y_centered: Vec<f64>,
    y_mean: f64,
    kernel: Matern52,
    noise_variance: f64,
    chol: Cholesky,
    alpha: Vec<f64>,
    /// Scratch for the incremental paths (the new kernel column, then the
    /// forward solve), so a window slide allocates nothing.
    work: Vec<f64>,
}

/// Reusable buffers for [`GpRegressor::predict_into`] and
/// [`GpRegressor::predict_lanes`]: holding one across calls makes repeated
/// posterior queries (acquisition sweeps over a candidate grid)
/// allocation-free, and keeps the 1-D kernel profile table warm while the
/// model's kernel is unchanged.
#[derive(Debug, Clone, Default)]
pub struct PredictScratch {
    /// The lanes' kernel rows, then (in place) their forward solves.
    rows: Vec<f64>,
    kernel: KernelRowScratch,
}

/// Log marginal likelihood from its parts: `fit = ỹ·α` and
/// `log_det = ln |K + σₙ²I|` over `n` points.
fn log_marginal_likelihood(n: usize, fit: f64, log_det: f64) -> f64 {
    let data_fit = -0.5 * fit;
    let complexity = -0.5 * log_det;
    let norm = -0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
    data_fit + complexity + norm
}

/// Points stored flat, row-major, `dim` coordinates each: the layout of a
/// [`GpRegressor`]'s training inputs and of a Bayesian search's candidate
/// set, one allocation however many points.
#[derive(Debug, Clone, Copy)]
pub struct Points<'a> {
    flat: &'a [f64],
    dim: usize,
}

impl<'a> Points<'a> {
    /// `flat` read as consecutive rows of `dim` coordinates. A fit rejects
    /// `dim == 0` or a length that is not a whole number of rows with
    /// [`GpError::DimensionMismatch`].
    pub fn new(flat: &'a [f64], dim: usize) -> Self {
        Points { flat, dim }
    }

    /// Number of whole points.
    pub fn len(&self) -> usize {
        self.flat.len().checked_div(self.dim).unwrap_or(0)
    }

    /// True when there is no whole point.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Coordinates per point.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Point `i`.
    pub fn get(&self, i: usize) -> &'a [f64] {
        &self.flat[i * self.dim..(i + 1) * self.dim]
    }

    /// The points in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a [f64]> {
        let points = *self;
        (0..points.len()).map(move |i| points.get(i))
    }

    /// Whether the flat storage is a whole number of rows of a positive
    /// dimension.
    fn well_formed(&self) -> bool {
        self.dim > 0 && self.flat.len().is_multiple_of(self.dim)
    }
}

impl GpRegressor {
    /// Fit a GP with the given hyperparameters.
    pub fn fit(
        x: Points<'_>,
        y: &[f64],
        kernel: Matern52,
        noise_variance: f64,
    ) -> Result<Self, GpError> {
        Self::fit_best(x, y, &[kernel], noise_variance)
    }

    /// Fit with hyperparameters selected by maximizing the log marginal
    /// likelihood over a small grid of (length-scale, signal-variance)
    /// candidates scaled to the data. This is the "GP-Hedge tunes BO's
    /// hyperparameters in real time" role from §3.2 for the kernel side.
    ///
    /// The 12 grid points are factored in lockstep by the same routine as
    /// [`GpRegressor::fit`], and only the winner becomes a regressor: the
    /// result is bit-identical to fitting each point alone and keeping the
    /// first with the highest log marginal likelihood.
    pub fn fit_auto(x: Points<'_>, y: &[f64], noise_variance: f64) -> Result<Self, GpError> {
        if !x.well_formed() {
            return Err(GpError::DimensionMismatch);
        }
        if x.is_empty() || x.len() != y.len() {
            return Err(GpError::Empty);
        }
        // Data-driven scales.
        let mut span: f64 = 0.0;
        for d in 0..x.dim() {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for p in x.iter() {
                lo = lo.min(p[d]);
                hi = hi.max(p[d]);
            }
            span = span.max(hi - lo);
        }
        if span <= 0.0 {
            span = 1.0;
        }
        let y_mean = y.iter().sum::<f64>() / y.len() as f64;
        let mut y_var = y.iter().map(|v| (v - y_mean) * (v - y_mean)).sum::<f64>() / y.len() as f64;
        if y_var <= 1e-12 {
            y_var = 1.0;
        }
        let kernels: [Matern52; GRID] = std::array::from_fn(|lane| {
            let (ls, var) = (lane / VARIANCE_MULS.len(), lane % VARIANCE_MULS.len());
            Matern52::new(y_var * VARIANCE_MULS[var], span * LENGTH_SCALE_FRACS[ls])
        });
        Self::fit_best(x, y, &kernels, noise_variance)
    }

    /// Fit one GP per kernel over the same data, as `L` lanes of one
    /// factorisation, and build the regressor of the lane with the highest
    /// log marginal likelihood (the first on ties; a NaN score wins only
    /// as the first surviving lane, as in a sequential `>` scan).
    ///
    /// Every lane performs exactly the operations, in the order, of a
    /// dense single fit — kernel entries `(σ²·poly)·decay` plus the noise
    /// on the diagonal, a row-by-row Cholesky whose pivot fails on
    /// `sum <= 0.0` (so a NaN pivot does not fail), forward and back
    /// substitution, then `2·Σ ln L_ii` — so each lane is bit-identical to
    /// fitting its kernel alone. A failing lane climbs its own cumulative
    /// jitter ladder (its diagonal `+= jitter`, then `jitter *= 10`) and
    /// drops out once the jitter exceeds `1e3·σ²`. The factors live in one
    /// packed lower triangle of `[f64; L]` entries, so the inner loops run
    /// across all lanes at once.
    fn fit_best<const L: usize>(
        x: Points<'_>,
        y: &[f64],
        kernels: &[Matern52; L],
        noise_variance: f64,
    ) -> Result<Self, GpError> {
        if !x.well_formed() {
            return Err(GpError::DimensionMismatch);
        }
        if x.is_empty() || x.len() != y.len() {
            return Err(GpError::Empty);
        }
        let n = x.len();
        let y_mean = y.iter().sum::<f64>() / n as f64;
        let y_centered: Vec<f64> = y.iter().map(|v| v - y_mean).collect();

        // Packed lower triangle: entry (i, j ≤ i) lives at i(i+1)/2 + j.
        let at = |i: usize, j: usize| i * (i + 1) / 2 + j;
        // Radial terms once per distinct length-scale: a lane reuses those
        // of the first lane with the same ℓ.
        let ls_source: [usize; L] = std::array::from_fn(|l| {
            let bits = kernels[l].length_scale.to_bits();
            (0..l)
                .find(|&m| kernels[m].length_scale.to_bits() == bits)
                .unwrap_or(l)
        });
        let entries = |d2: f64| -> [f64; L] {
            let mut terms = [(0.0, 0.0); L];
            let mut k = [0.0; L];
            for l in 0..L {
                terms[l] = if ls_source[l] == l {
                    radial(kernels[l].length_scale, d2)
                } else {
                    terms[ls_source[l]]
                };
                k[l] = kernels[l].variance * terms[l].0 * terms[l].1;
            }
            k
        };
        // Every lane's kernel entries, built once per distinct squared
        // distance through a direct-mapped memo on its bits: a window on the
        // concurrency line has a few dozen among its n(n+1)/2 pairs.
        let mut memo: Vec<Option<(u64, [f64; L])>> = vec![None; 64];
        let pairs = (0..n).flat_map(|i| (0..=i).map(move |j| (i, j)));
        let kernel_entries: Vec<[f64; L]> = pairs
            .map(|(i, j)| {
                let bits = squared_distance(x.get(i), x.get(j)).to_bits();
                let slot = &mut memo[(bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize];
                let k = slot
                    .filter(|&(b, _)| b == bits)
                    .map_or_else(|| entries(f64::from_bits(bits)), |(_, k)| k);
                *slot = Some((bits, k));
                k
            })
            .collect();
        // Each lane's diagonal, noise included, as its jitter ladder
        // raises it.
        let mut diag: Vec<[f64; L]> = (0..n)
            .map(|i| kernel_entries[at(i, i)].map(|k| k + noise_variance))
            .collect();
        let mut jitter: [f64; L] = std::array::from_fn(|l| 1e-10 * kernels[l].diag());
        let mut live = [true; L];
        let mut a = Vec::new();
        loop {
            a.clone_from(&kernel_entries);
            for (i, d) in diag.iter().enumerate() {
                a[at(i, i)] = *d;
            }
            let factored = cholesky_lanes(&mut a, n);
            let mut retry = false;
            for l in 0..L {
                if !live[l] || factored[l] {
                    continue;
                }
                if jitter[l] > 1e3 * kernels[l].diag() {
                    live[l] = false;
                    continue;
                }
                for d in &mut diag {
                    d[l] += jitter[l];
                }
                jitter[l] *= 10.0;
                retry = true;
            }
            if !retry {
                break;
            }
        }

        // α = L⁻ᵀ L⁻¹ ỹ per lane: forward, then back substitution.
        let mut alpha = vec![[0.0; L]; n];
        for i in 0..n {
            let mut sum = [y_centered[i]; L];
            for (lik, tk) in a[at(i, 0)..at(i, i)].iter().zip(&alpha[..i]) {
                for l in 0..L {
                    sum[l] -= lik[l] * tk[l];
                }
            }
            let lii = a[at(i, i)];
            alpha[i] = std::array::from_fn(|l| sum[l] / lii[l]);
        }
        for i in (0..n).rev() {
            let mut sum = alpha[i];
            for k in (i + 1)..n {
                let (lki, ak) = (a[at(k, i)], alpha[k]);
                for l in 0..L {
                    sum[l] -= lki[l] * ak[l];
                }
            }
            let lii = a[at(i, i)];
            alpha[i] = std::array::from_fn(|l| sum[l] / lii[l]);
        }

        let mut best: Option<(f64, usize)> = None;
        for l in (0..L).filter(|&l| live[l]) {
            let fit = y_centered
                .iter()
                .zip(&alpha)
                .map(|(u, v)| u * v[l])
                .sum::<f64>();
            let log_det = (0..n).map(|i| a[at(i, i)][l].ln()).sum::<f64>() * 2.0;
            let lml = log_marginal_likelihood(n, fit, log_det);
            if best.is_none_or(|(b, _)| lml > b) {
                best = Some((lml, l));
            }
        }
        let (_, w) = best.ok_or(GpError::NotPositiveDefinite)?;
        Ok(GpRegressor {
            x_flat: x.flat.to_vec(),
            dim: x.dim(),
            y_raw: y.to_vec(),
            y_centered,
            y_mean,
            kernel: kernels[w],
            noise_variance,
            chol: Cholesky::from_packed(n, a.iter().map(|v| v[w]).collect()),
            alpha: alpha.iter().map(|v| v[w]).collect(),
            work: Vec::new(),
        })
    }

    /// Append one observation in `O(n²)` by bordering the Cholesky factor
    /// ([`Cholesky::append_row`]) instead of refitting in `O(n³)`.
    ///
    /// Hyperparameters are kept as fitted; the target mean and `alpha` are
    /// recomputed over all points, so when no jitter retry fires the
    /// resulting model is bit-identical to `GpRegressor::fit` on the full
    /// sequence with the same hyperparameters. On error the model is left
    /// as it was.
    pub fn extend(&mut self, x_new: &[f64], y_new: f64) -> Result<(), GpError> {
        self.append_factor(x_new)?;
        self.push_point(x_new, y_new);
        self.recenter_and_resolve()
    }

    /// Slide the window by one observation, re-solving `alpha` once: bit for
    /// bit [`GpRegressor::extend`] then [`GpRegressor::drop_oldest`], which
    /// re-solve it twice. On error the model is left as it was.
    pub fn slide(&mut self, x_new: &[f64], y_new: f64) -> Result<(), GpError> {
        // `drop_oldest` refuses a factor with a non-positive pivot: refuse
        // it before bordering, whose own pivot is a positive square root.
        if (0..self.len()).any(|i| self.chol[(i, i)] <= 0.0) {
            return Err(GpError::NotPositiveDefinite);
        }
        self.append_factor(x_new)?;
        self.push_point(x_new, y_new);
        self.drop_oldest()
    }

    /// Store a new training point, growing each buffer by exactly one
    /// point: a window keeps at most one point more than it fits.
    fn push_point(&mut self, x_new: &[f64], y_new: f64) {
        self.x_flat.reserve_exact(self.dim);
        self.x_flat.extend_from_slice(x_new);
        self.y_raw.reserve_exact(1);
        self.y_raw.push(y_new);
    }

    /// Border the factor with the row of `x_new` ([`Cholesky::append_row`]),
    /// escalating jitter on the new diagonal entry only, as `fit` does. On
    /// error the factor is left as it was.
    fn append_factor(&mut self, x_new: &[f64]) -> Result<(), GpError> {
        if x_new.len() != self.dim {
            return Err(GpError::DimensionMismatch);
        }
        self.work.clear();
        self.work.reserve_exact(self.y_raw.len());
        let (kernel, inputs) = (self.kernel, Points::new(&self.x_flat, self.dim));
        self.work
            .extend(inputs.iter().map(|xi| kernel.eval(xi, x_new)));
        let mut diag = self.kernel.eval(x_new, x_new) + self.noise_variance;
        let mut jitter = 1e-10 * self.kernel.diag();
        loop {
            match self.chol.append_row(&self.work, diag) {
                Ok(()) => return Ok(()),
                Err(LinalgError::DimensionMismatch) => return Err(GpError::DimensionMismatch),
                Err(LinalgError::NotPositiveDefinite) => {
                    if jitter > 1e3 * self.kernel.diag() {
                        return Err(GpError::NotPositiveDefinite);
                    }
                    diag += jitter;
                    jitter *= 10.0;
                }
            }
        }
    }

    /// Remove the oldest training point in `O(n²)` by downdating the
    /// Cholesky factor ([`Cholesky::drop_row`]) instead of
    /// refitting in `O(n³)`. Together with [`GpRegressor::extend`] this
    /// makes a true sliding window: `drop_oldest` + `extend` per probe
    /// keeps the factor exact (to rank-1-update accumulation, ~1e-12)
    /// without a from-scratch refactorization ever entering the per-probe
    /// path.
    ///
    /// Errors leave the model unchanged; dropping the last remaining point
    /// is rejected with [`GpError::Empty`] (a GP with no data has no
    /// posterior).
    pub fn drop_oldest(&mut self) -> Result<(), GpError> {
        if self.y_raw.len() <= 1 {
            return Err(GpError::Empty);
        }
        self.chol.drop_row(0).map_err(|e| match e {
            LinalgError::DimensionMismatch => GpError::DimensionMismatch,
            LinalgError::NotPositiveDefinite => GpError::NotPositiveDefinite,
        })?;
        self.x_flat.drain(..self.dim);
        self.y_raw.remove(0);
        self.recenter_and_resolve()
    }

    /// Recompute the target mean, centred targets, and `alpha` from
    /// `y_raw` against the current factor (shared by the incremental
    /// extend/drop paths; `O(n²)` triangular solves into owned buffers).
    fn recenter_and_resolve(&mut self) -> Result<(), GpError> {
        self.y_mean = self.y_raw.iter().sum::<f64>() / self.y_raw.len() as f64;
        self.y_centered.clear();
        self.y_centered.reserve_exact(self.y_raw.len());
        let mean = self.y_mean;
        self.y_centered.extend(self.y_raw.iter().map(|v| v - mean));
        self.chol
            .solve_lower_into(&self.y_centered, &mut self.work)
            .map_err(|_| GpError::DimensionMismatch)?;
        self.chol
            .solve_lower_transpose_into(&self.work, &mut self.alpha)
            .map_err(|_| GpError::DimensionMismatch)?;
        Ok(())
    }

    /// The (uncentred) training targets currently in the model, oldest
    /// first — callers maintaining an incumbent under a sliding window
    /// re-scan these after a drop.
    pub fn targets(&self) -> &[f64] {
        &self.y_raw
    }

    /// The training inputs currently in the model, oldest first.
    pub fn inputs(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        Points::new(&self.x_flat, self.dim).iter()
    }

    /// Kernel hyperparameters and noise variance currently in effect —
    /// the reference oracle in the drift-refit proptests refits from
    /// scratch at exactly these values.
    pub fn hyperparameters(&self) -> (Matern52, f64) {
        (self.kernel, self.noise_variance)
    }

    /// Posterior mean and variance at a query point, using caller-owned
    /// buffers, so sweeping a candidate grid performs no per-query
    /// allocation. The one-lane case of [`GpRegressor::predict_lanes`].
    pub fn predict_into(&self, xq: &[f64], scratch: &mut PredictScratch) -> (f64, f64) {
        self.predict_lanes([xq], scratch)[0]
    }

    /// Posterior mean and variance at `L` query points in one pass: kernel
    /// rows, one forward substitution over `[f64; L]` rows and lane-wise
    /// dots. Each lane runs a single query's operations in their order
    /// (`-0.0`-seeded sums, no fused multiply-add), so each `(μ, σ²)` is
    /// bit-identical to querying its point alone.
    pub fn predict_lanes<const L: usize>(
        &self,
        queries: [&[f64]; L],
        scratch: &mut PredictScratch,
    ) -> [(f64, f64); L] {
        resize_exact(&mut scratch.rows, self.y_raw.len() * L, 0.0);
        let (k, _) = scratch.rows.as_chunks_mut::<L>();
        self.kernel
            .eval_rows(queries, &self.x_flat, self.dim, &mut scratch.kernel, k);
        let mut k_alpha = [-0.0; L];
        for (kj, aj) in k.iter().zip(&self.alpha) {
            for l in 0..L {
                k_alpha[l] += kj[l] * aj;
            }
        }
        // v = L⁻¹k in place. A solve failure cannot happen for a factor
        // built by `fit`, but if it ever did the GP degrades to the prior
        // variance instead of panicking mid-transfer.
        let mut vv = [-0.0; L];
        if self.chol.solve_lower_lanes(k).is_ok() {
            for vj in k.iter() {
                for l in 0..L {
                    vv[l] += vj[l] * vj[l];
                }
            }
        }
        let prior = self.kernel.diag() + self.noise_variance;
        std::array::from_fn(|l| (self.y_mean + k_alpha[l], (prior - vv[l]).max(1e-12)))
    }

    /// Log marginal likelihood of the training data under the fitted model.
    pub fn log_marginal_likelihood(&self) -> f64 {
        log_marginal_likelihood(
            self.y_raw.len(),
            dot(&self.y_centered, &self.alpha),
            self.chol.log_det(),
        )
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.y_raw.len()
    }

    /// True when fitted on no points (cannot happen through `fit`, kept for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.y_raw.is_empty()
    }

    /// Heap bytes the model holds: training data, factor, weights and
    /// update scratch, by capacity.
    pub fn memory_bytes(&self) -> usize {
        vec_bytes(&self.x_flat)
            + vec_bytes(&self.y_raw)
            + vec_bytes(&self.y_centered)
            + vec_bytes(&self.alpha)
            + vec_bytes(&self.work)
            + self.chol.memory_bytes()
    }
}

impl PredictScratch {
    /// Heap bytes the buffers hold, by capacity.
    pub(crate) fn memory_bytes(&self) -> usize {
        vec_bytes(&self.rows) + self.kernel.memory_bytes()
    }
}

/// Cholesky-factor `L` packed lower triangles of `[f64; L]` lanes in place,
/// row by row in the order of [`crate::Matrix::cholesky`]. Returns which lanes
/// factored; a lane whose pivot fails keeps computing (into NaNs) and is
/// ignored by the caller.
fn cholesky_lanes<const L: usize>(a: &mut [[f64; L]], n: usize) -> [bool; L] {
    let mut ok = [true; L];
    for i in 0..n {
        let (done, rest) = a.split_at_mut(i * (i + 1) / 2);
        let row_i = &mut rest[..=i];
        for j in 0..i {
            let row_j = &done[j * (j + 1) / 2..][..=j];
            let mut sum = row_i[j];
            for (lik, ljk) in row_i[..j].iter().zip(&row_j[..j]) {
                for l in 0..L {
                    sum[l] -= lik[l] * ljk[l];
                }
            }
            let ljj = row_j[j];
            row_i[j] = std::array::from_fn(|l| sum[l] / ljj[l]);
        }
        let mut sum = row_i[i];
        for lik in &row_i[..i] {
            for l in 0..L {
                sum[l] -= lik[l] * lik[l];
            }
        }
        for l in 0..L {
            if sum[l] <= 0.0 {
                ok[l] = false;
            }
        }
        row_i[i] = sum.map(f64::sqrt);
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Points on a line.
    fn xs(points: &[f64]) -> Points<'_> {
        Points::new(points, 1)
    }

    #[test]
    fn interpolates_training_points_with_low_noise() {
        let x = xs(&[0.0, 1.0, 2.0, 3.0]);
        let y = [0.0, 1.0, 4.0, 9.0];
        let gp = GpRegressor::fit(x, &y, Matern52::new(10.0, 1.0), 1e-6).unwrap();
        for (xi, yi) in x.iter().zip(y.iter()) {
            let (m, v) = gp.predict_into(xi, &mut PredictScratch::default());
            assert!((m - yi).abs() < 0.05, "mean {m} vs {yi}");
            assert!(v < 0.1, "variance {v} at training point");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let x = xs(&[0.0, 1.0]);
        let y = [0.0, 1.0];
        let gp = GpRegressor::fit(x, &y, Matern52::new(1.0, 1.0), 1e-4).unwrap();
        let (_, v_near) = gp.predict_into(&[0.5], &mut PredictScratch::default());
        let (_, v_far) = gp.predict_into(&[10.0], &mut PredictScratch::default());
        assert!(v_far > v_near * 2.0, "{v_far} vs {v_near}");
    }

    #[test]
    fn reverts_to_mean_far_from_data() {
        let x = xs(&[0.0, 1.0, 2.0]);
        let y = [5.0, 6.0, 7.0];
        let gp = GpRegressor::fit(x, &y, Matern52::new(1.0, 1.0), 1e-4).unwrap();
        let (m, _) = gp.predict_into(&[100.0], &mut PredictScratch::default());
        assert!((m - 6.0).abs() < 1e-6, "far mean {m} should be y-mean 6");
    }

    #[test]
    fn noise_smooths_predictions() {
        let x = xs(&[0.0, 0.0, 0.0, 1.0]);
        let y = [1.0, 2.0, 3.0, 0.0]; // conflicting repeats need noise
        let gp = GpRegressor::fit(x, &y, Matern52::new(1.0, 1.0), 0.5).unwrap();
        let (m, _) = gp.predict_into(&[0.0], &mut PredictScratch::default());
        assert!((m - 2.0).abs() < 0.5, "mean at repeated x: {m}");
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(
            GpRegressor::fit(xs(&[]), &[], Matern52::new(1.0, 1.0), 0.1).unwrap_err(),
            GpError::Empty
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        // Three coordinates are no whole number of 2-D points.
        let x = Points::new(&[0.0, 0.0, 1.0], 2);
        let y = [1.0, 2.0];
        assert_eq!(
            GpRegressor::fit(x, &y, Matern52::new(1.0, 1.0), 0.1).unwrap_err(),
            GpError::DimensionMismatch
        );
        assert_eq!(
            GpRegressor::fit(Points::new(&[], 0), &[], Matern52::new(1.0, 1.0), 0.1).unwrap_err(),
            GpError::DimensionMismatch
        );
    }

    #[test]
    fn fit_auto_finds_reasonable_fit_on_smooth_function() {
        let points: Vec<f64> = (0..15).map(|i| f64::from(i) * 0.5).collect();
        let x = xs(&points);
        let y: Vec<f64> = points.iter().map(|p| (p * 0.8).sin() * 3.0).collect();
        let gp = GpRegressor::fit_auto(x, &y, 1e-4).unwrap();
        // Predict at held-out midpoints.
        for p in points.iter().take(14) {
            let mid = p + 0.25;
            let truth = (mid * 0.8).sin() * 3.0;
            let (m, _) = gp.predict_into(&[mid], &mut PredictScratch::default());
            assert!((m - truth).abs() < 0.3, "at {mid}: {m} vs {truth}");
        }
    }

    #[test]
    fn lml_prefers_correct_length_scale() {
        // Data generated with slow variation: a tiny length scale should have
        // lower marginal likelihood than a matched one.
        let points: Vec<f64> = (0..12).map(f64::from).collect();
        let x = xs(&points);
        let y: Vec<f64> = points.iter().map(|p| (p / 6.0).sin()).collect();
        let good = GpRegressor::fit(x, &y, Matern52::new(1.0, 4.0), 1e-4)
            .unwrap()
            .log_marginal_likelihood();
        let bad = GpRegressor::fit(x, &y, Matern52::new(1.0, 0.05), 1e-4)
            .unwrap()
            .log_marginal_likelihood();
        assert!(good > bad, "good {good} vs bad {bad}");
    }

    #[test]
    fn constant_targets_do_not_crash_fit_auto() {
        let x = xs(&[1.0, 2.0, 3.0]);
        let y = [5.0, 5.0, 5.0];
        let gp = GpRegressor::fit_auto(x, &y, 1e-4).unwrap();
        let (m, _) = gp.predict_into(&[2.5], &mut PredictScratch::default());
        assert!((m - 5.0).abs() < 0.2);
    }

    #[test]
    fn extend_matches_full_refit_bitwise() {
        let x = [0.0, 1.0, 2.0, 3.0, 4.0];
        let y = [0.0, 1.0, 4.0, 9.0, 16.0];
        let kernel = Matern52::new(10.0, 1.5);
        let mut grown = GpRegressor::fit(xs(&x[..3]), &y[..3], kernel, 1e-4).unwrap();
        grown.extend(&x[3..4], y[3]).unwrap();
        grown.extend(&x[4..5], y[4]).unwrap();
        let x = xs(&x);
        let full = GpRegressor::fit(x, &y, kernel, 1e-4).unwrap();
        for q in [0.5, 2.5, 3.7, 10.0] {
            let (gm, gv) = grown.predict_into(&[q], &mut PredictScratch::default());
            let (fm, fv) = full.predict_into(&[q], &mut PredictScratch::default());
            assert_eq!(gm, fm, "mean at {q}");
            assert_eq!(gv, fv, "variance at {q}");
        }
        assert_eq!(
            grown.log_marginal_likelihood(),
            full.log_marginal_likelihood()
        );
    }

    #[test]
    fn extend_rejects_dimension_mismatch_without_corrupting() {
        let x = xs(&[0.0, 1.0]);
        let y = [0.0, 1.0];
        let mut gp = GpRegressor::fit(x, &y, Matern52::new(1.0, 1.0), 1e-4).unwrap();
        let before = gp.predict_into(&[0.5], &mut PredictScratch::default());
        assert_eq!(
            gp.extend(&[1.0, 2.0], 3.0).unwrap_err(),
            GpError::DimensionMismatch
        );
        assert_eq!(gp.len(), 2);
        assert_eq!(
            gp.predict_into(&[0.5], &mut PredictScratch::default()),
            before
        );
    }

    #[test]
    fn drop_oldest_matches_refit_on_window() {
        let points: Vec<f64> = (0..8).map(f64::from).collect();
        let x = &points;
        let y: Vec<f64> = points.iter().map(|p| (p * 0.7).sin() * 2.0).collect();
        let kernel = Matern52::new(2.0, 3.0);
        let mut slid = GpRegressor::fit(xs(&x[..5]), &y[..5], kernel, 1e-4).unwrap();
        // Slide the window [0,5) → [3,8): drop + extend per step.
        for i in 5..8 {
            slid.drop_oldest().unwrap();
            slid.extend(&x[i..=i], y[i]).unwrap();
        }
        let fresh = GpRegressor::fit(xs(&x[3..]), &y[3..], kernel, 1e-4).unwrap();
        assert_eq!(slid.len(), 5);
        for q in [0.5, 3.5, 5.1, 9.0] {
            let (sm, sv) = slid.predict_into(&[q], &mut PredictScratch::default());
            let (fm, fv) = fresh.predict_into(&[q], &mut PredictScratch::default());
            assert!((sm - fm).abs() < 1e-9, "mean {sm} vs {fm} at {q}");
            assert!((sv - fv).abs() < 1e-9, "var {sv} vs {fv} at {q}");
        }
    }

    /// Every value a window step leaves in the model, as bits.
    fn model_bits(gp: &GpRegressor) -> Vec<u64> {
        let n = gp.len();
        let chol = (0..n).flat_map(|i| (0..=i).map(move |j| (i, j)));
        [gp.y_mean, gp.kernel.variance, gp.kernel.length_scale]
            .into_iter()
            .chain(gp.x_flat.iter().copied())
            .chain(gp.y_raw.iter().copied())
            .chain(gp.y_centered.iter().copied())
            .chain(gp.alpha.iter().copied())
            .chain(chol.map(|(i, j)| gp.chol[(i, j)]))
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn slide_equals_extend_then_drop_oldest_bitwise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(47);
        // Lattice points (repeats included) or fractional ones, 1-D or 2-D.
        let point = |rng: &mut StdRng, dim: usize| -> Vec<f64> {
            (0..dim)
                .map(|_| match rng.gen_range(0..2u32) {
                    0 => f64::from(rng.gen_range(1..40u32)),
                    _ => rng.gen_range(-5.0..45.0),
                })
                .collect()
        };
        for case in 0..200 {
            let dim = 1 + case % 2;
            let n = rng.gen_range(1..=20usize);
            let x: Vec<f64> = (0..n).flat_map(|_| point(&mut rng, dim)).collect();
            let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let mut slid = GpRegressor::fit_auto(Points::new(&x, dim), &y, 0.02).unwrap();
            let mut stepped = slid.clone();
            for _ in 0..6 {
                let (xn, yn) = (point(&mut rng, dim), rng.gen_range(-3.0..3.0));
                let got = slid.slide(&xn, yn);
                let want = stepped.extend(&xn, yn).and_then(|()| stepped.drop_oldest());
                assert_eq!(got, want, "case {case}");
                assert_eq!(model_bits(&slid), model_bits(&stepped), "case {case}");
            }
        }
        // The error paths: the step fails as `extend` does, and leaves the
        // model as it was.
        let mut gp =
            GpRegressor::fit(xs(&[0.0, 1.0]), &[0.0, 1.0], Matern52::new(1.0, 1.0), 1e-4).unwrap();
        let before = model_bits(&gp);
        let err = gp.clone().extend(&[1.0, 2.0], 3.0).unwrap_err();
        assert_eq!(err, GpError::DimensionMismatch);
        assert_eq!(gp.slide(&[1.0, 2.0], 3.0).unwrap_err(), err);
        assert_eq!(model_bits(&gp), before);
        // A noise so negative that only the top of the jitter ladder
        // factors one point; bordering a second copy of it fails outright.
        let mut gp =
            GpRegressor::fit(xs(&[0.0]), &[1.0], Matern52::new(1.0, 1.0), -1112.1).unwrap();
        let before = model_bits(&gp);
        let err = gp.clone().extend(&[0.0], 2.0).unwrap_err();
        assert_eq!(err, GpError::NotPositiveDefinite);
        assert_eq!(gp.slide(&[0.0], 2.0).unwrap_err(), err);
        assert_eq!(model_bits(&gp), before);
    }

    #[test]
    fn drop_oldest_rejects_last_point_without_corrupting() {
        let x = xs(&[0.0, 1.0]);
        let y = [0.0, 1.0];
        let mut gp = GpRegressor::fit(x, &y, Matern52::new(1.0, 1.0), 1e-4).unwrap();
        gp.drop_oldest().unwrap();
        assert_eq!(gp.len(), 1);
        let before = gp.predict_into(&[0.5], &mut PredictScratch::default());
        assert_eq!(gp.drop_oldest().unwrap_err(), GpError::Empty);
        assert_eq!(gp.len(), 1);
        assert_eq!(
            gp.predict_into(&[0.5], &mut PredictScratch::default()),
            before
        );
    }

    #[test]
    fn targets_and_inputs_track_the_window() {
        let x = xs(&[0.0, 1.0, 2.0]);
        let y = [5.0, 6.0, 7.0];
        let mut gp = GpRegressor::fit(x, &y, Matern52::new(1.0, 1.0), 1e-4).unwrap();
        gp.drop_oldest().unwrap();
        gp.extend(&[3.0], 8.0).unwrap();
        assert_eq!(gp.targets(), &[6.0, 7.0, 8.0]);
        assert!(gp.inputs().eq([[1.0], [2.0], [3.0]].iter().map(|p| &p[..])));
    }

    #[test]
    fn predict_into_with_reused_scratch_matches_fresh() {
        let x = xs(&[0.0, 1.0, 2.0]);
        let y = [1.0, -1.0, 2.0];
        let gp = GpRegressor::fit(x, &y, Matern52::new(2.0, 1.0), 1e-4).unwrap();
        let mut scratch = PredictScratch::default();
        for q in [-1.0, 0.5, 1.5, 4.0] {
            let fresh = gp.predict_into(&[q], &mut PredictScratch::default());
            assert_eq!(gp.predict_into(&[q], &mut scratch), fresh);
        }
    }

    #[test]
    fn window_of_20_points_fits_fast() {
        // The paper's claim: with a 20-observation cap, GP processing stays
        // in the milliseconds. Criterion benches quantify it; here we only
        // sanity-check it completes and predicts.
        let points: Vec<f64> = (0..20).map(f64::from).collect();
        let x = xs(&points);
        let y: Vec<f64> = points.iter().map(|p| -((p - 10.0) * (p - 10.0))).collect();
        let gp = GpRegressor::fit_auto(x, &y, 0.01).unwrap();
        let (m_peak, _) = gp.predict_into(&[10.0], &mut PredictScratch::default());
        let (m_edge, _) = gp.predict_into(&[0.0], &mut PredictScratch::default());
        assert!(m_peak > m_edge);
    }
}
