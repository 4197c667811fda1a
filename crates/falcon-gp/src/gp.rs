//! Gaussian-process regression.

use crate::kernel::{KernelRowScratch, Matern52};
use crate::linalg::{dot, LinalgError, Matrix};

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
/// use falcon_gp::{GpRegressor, Matern52, PredictScratch};
///
/// let xs: Vec<Vec<f64>> = (0..6).map(|i| vec![f64::from(i)]).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| (x[0] - 3.0).powi(2) * -1.0).collect();
/// let gp = GpRegressor::fit(&xs, &ys, Matern52::new(5.0, 2.0), 1e-4).unwrap();
/// let mut scratch = PredictScratch::default();
/// let (mean_at_peak, _) = gp.predict_into(&[3.0], &mut scratch);
/// let (mean_at_edge, _) = gp.predict_into(&[0.0], &mut scratch);
/// assert!(mean_at_peak > mean_at_edge);
/// ```
#[derive(Debug, Clone)]
pub struct GpRegressor {
    x: Vec<Vec<f64>>,
    /// The same training points as `x`, flattened row-major (`n×dim`):
    /// the storage [`Matern52::eval_row`] streams over.
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
    chol: Matrix,
    alpha: Vec<f64>,
}

/// Reusable buffers for [`GpRegressor::predict_into`]: holding one across
/// calls makes repeated posterior queries (acquisition sweeps over a
/// candidate grid) allocation-free.
#[derive(Debug, Clone, Default)]
pub struct PredictScratch {
    k_star: Vec<f64>,
    v: Vec<f64>,
    kernel: KernelRowScratch,
}

impl GpRegressor {
    /// Fit a GP with the given hyperparameters.
    pub fn fit(
        x: &[Vec<f64>],
        y: &[f64],
        kernel: Matern52,
        noise_variance: f64,
    ) -> Result<Self, GpError> {
        if x.is_empty() || x.len() != y.len() {
            return Err(GpError::Empty);
        }
        let dim = x[0].len();
        if x.iter().any(|p| p.len() != dim) {
            return Err(GpError::DimensionMismatch);
        }
        let n = x.len();
        let y_mean = y.iter().sum::<f64>() / n as f64;
        let y_centered: Vec<f64> = y.iter().map(|v| v - y_mean).collect();

        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = kernel.eval(&x[i], &x[j]);
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
            k[(i, i)] += noise_variance;
        }
        // Jitter escalation for numerical robustness.
        let mut jitter = 1e-10 * kernel.diag();
        let chol = loop {
            match k.cholesky() {
                Ok(l) => break l,
                Err(LinalgError::DimensionMismatch) => return Err(GpError::DimensionMismatch),
                Err(LinalgError::NotPositiveDefinite) => {
                    if jitter > 1e3 * kernel.diag() {
                        return Err(GpError::NotPositiveDefinite);
                    }
                    for i in 0..n {
                        k[(i, i)] += jitter;
                    }
                    jitter *= 10.0;
                }
            }
        };
        let mut tmp = Vec::new();
        chol.solve_lower_into(&y_centered, &mut tmp)
            .map_err(|_| GpError::DimensionMismatch)?;
        let alpha = chol
            .solve_lower_transpose(&tmp)
            .map_err(|_| GpError::DimensionMismatch)?;
        let x_flat: Vec<f64> = x.iter().flat_map(|p| p.iter().copied()).collect();
        Ok(GpRegressor {
            x: x.to_vec(),
            x_flat,
            dim,
            y_raw: y.to_vec(),
            y_centered,
            y_mean,
            kernel,
            noise_variance,
            chol,
            alpha,
        })
    }

    /// Append one observation in `O(n²)` by bordering the Cholesky factor
    /// ([`Matrix::cholesky_append_row`]) instead of refitting in `O(n³)`.
    ///
    /// Hyperparameters are kept as fitted; the target mean and `alpha` are
    /// recomputed over all points, so when no jitter retry fires the
    /// resulting model is bit-identical to `GpRegressor::fit` on the full
    /// sequence with the same hyperparameters. On error the model is left
    /// as it was.
    pub fn extend(&mut self, x_new: Vec<f64>, y_new: f64) -> Result<(), GpError> {
        let dim = self.x.first().map_or(x_new.len(), Vec::len);
        if x_new.len() != dim {
            return Err(GpError::DimensionMismatch);
        }
        let mut k = vec![0.0; self.x.len()];
        for (ki, xi) in k.iter_mut().zip(self.x.iter()) {
            *ki = self.kernel.eval(xi, &x_new);
        }
        let mut diag = self.kernel.eval(&x_new, &x_new) + self.noise_variance;
        // Jitter escalation on the new diagonal entry only, mirroring `fit`.
        let mut jitter = 1e-10 * self.kernel.diag();
        loop {
            match self.chol.cholesky_append_row(&k, diag) {
                Ok(()) => break,
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
        self.x_flat.extend_from_slice(&x_new);
        self.x.push(x_new);
        self.y_raw.push(y_new);
        self.recenter_and_resolve()
    }

    /// Remove the oldest training point in `O(n²)` by downdating the
    /// Cholesky factor ([`Matrix::cholesky_drop_row`]) instead of
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
        if self.x.len() <= 1 {
            return Err(GpError::Empty);
        }
        self.chol.cholesky_drop_row(0).map_err(|e| match e {
            LinalgError::DimensionMismatch => GpError::DimensionMismatch,
            LinalgError::NotPositiveDefinite => GpError::NotPositiveDefinite,
        })?;
        self.x.remove(0);
        // Drop the oldest row of the flat buffer in place.
        let keep = self.x_flat.len() - self.dim;
        self.x_flat.copy_within(self.dim.., 0);
        self.x_flat.truncate(keep);
        self.y_raw.remove(0);
        self.recenter_and_resolve()
    }

    /// Recompute the target mean, centred targets, and `alpha` from
    /// `y_raw` against the current factor (shared by the incremental
    /// extend/drop paths; `O(n²)` triangular solves).
    fn recenter_and_resolve(&mut self) -> Result<(), GpError> {
        self.y_mean = self.y_raw.iter().sum::<f64>() / self.y_raw.len() as f64;
        self.y_centered.clear();
        let mean = self.y_mean;
        self.y_centered.extend(self.y_raw.iter().map(|v| v - mean));
        let mut tmp = Vec::new();
        self.chol
            .solve_lower_into(&self.y_centered, &mut tmp)
            .map_err(|_| GpError::DimensionMismatch)?;
        self.alpha = self
            .chol
            .solve_lower_transpose(&tmp)
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
    pub fn inputs(&self) -> &[Vec<f64>] {
        &self.x
    }

    /// Kernel hyperparameters and noise variance currently in effect —
    /// the reference oracle in the drift-refit proptests refits from
    /// scratch at exactly these values.
    pub fn hyperparameters(&self) -> (Matern52, f64) {
        (self.kernel, self.noise_variance)
    }

    /// Fit with hyperparameters selected by maximizing the log marginal
    /// likelihood over a small grid of (length-scale, signal-variance)
    /// candidates scaled to the data. This is the "GP-Hedge tunes BO's
    /// hyperparameters in real time" role from §3.2 for the kernel side.
    pub fn fit_auto(x: &[Vec<f64>], y: &[f64], noise_variance: f64) -> Result<Self, GpError> {
        if x.is_empty() || x.len() != y.len() {
            return Err(GpError::Empty);
        }
        // Data-driven scales.
        let dim = x[0].len();
        let mut span: f64 = 0.0;
        for d in 0..dim {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for p in x {
                if p.len() != dim {
                    return Err(GpError::DimensionMismatch);
                }
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

        let mut best: Option<(f64, GpRegressor)> = None;
        for &ls_frac in &[0.1, 0.2, 0.4, 0.8] {
            for &var_mul in &[0.5, 1.0, 2.0] {
                let kernel = Matern52::new(y_var * var_mul, span * ls_frac);
                if let Ok(gp) = GpRegressor::fit(x, y, kernel, noise_variance) {
                    let lml = gp.log_marginal_likelihood();
                    if best.as_ref().is_none_or(|(b, _)| lml > *b) {
                        best = Some((lml, gp));
                    }
                }
            }
        }
        best.map(|(_, gp)| gp).ok_or(GpError::NotPositiveDefinite)
    }

    /// Posterior mean and variance at a query point, using caller-owned
    /// buffers, so sweeping a candidate grid performs no per-query
    /// allocation.
    pub fn predict_into(&self, xq: &[f64], scratch: &mut PredictScratch) -> (f64, f64) {
        let n = self.x.len();
        if scratch.k_star.len() != n {
            scratch.k_star.clear();
            scratch.k_star.resize(n, 0.0);
        }
        self.kernel.eval_row(
            xq,
            &self.x_flat,
            self.dim,
            &mut scratch.kernel,
            &mut scratch.k_star,
        );
        let mean = self.y_mean + dot(&scratch.k_star, &self.alpha);
        // A solve failure cannot happen for a factor built by `fit`, but if
        // it ever did the GP degrades to the prior variance instead of
        // panicking mid-transfer.
        let var = match self.chol.solve_lower_into(&scratch.k_star, &mut scratch.v) {
            Ok(()) => self.kernel.diag() + self.noise_variance - dot(&scratch.v, &scratch.v),
            Err(_) => self.kernel.diag() + self.noise_variance,
        };
        (mean, var.max(1e-12))
    }

    /// Log marginal likelihood of the training data under the fitted model.
    pub fn log_marginal_likelihood(&self) -> f64 {
        let n = self.x.len() as f64;
        let data_fit = -0.5 * dot(&self.y_centered, &self.alpha);
        let complexity = -0.5 * self.chol.cholesky_log_det();
        let norm = -0.5 * n * (2.0 * std::f64::consts::PI).ln();
        data_fit + complexity + norm
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when fitted on no points (cannot happen through `fit`, kept for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xs(points: &[f64]) -> Vec<Vec<f64>> {
        points.iter().map(|&p| vec![p]).collect()
    }

    #[test]
    fn interpolates_training_points_with_low_noise() {
        let x = xs(&[0.0, 1.0, 2.0, 3.0]);
        let y = [0.0, 1.0, 4.0, 9.0];
        let gp = GpRegressor::fit(&x, &y, Matern52::new(10.0, 1.0), 1e-6).unwrap();
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
        let gp = GpRegressor::fit(&x, &y, Matern52::new(1.0, 1.0), 1e-4).unwrap();
        let (_, v_near) = gp.predict_into(&[0.5], &mut PredictScratch::default());
        let (_, v_far) = gp.predict_into(&[10.0], &mut PredictScratch::default());
        assert!(v_far > v_near * 2.0, "{v_far} vs {v_near}");
    }

    #[test]
    fn reverts_to_mean_far_from_data() {
        let x = xs(&[0.0, 1.0, 2.0]);
        let y = [5.0, 6.0, 7.0];
        let gp = GpRegressor::fit(&x, &y, Matern52::new(1.0, 1.0), 1e-4).unwrap();
        let (m, _) = gp.predict_into(&[100.0], &mut PredictScratch::default());
        assert!((m - 6.0).abs() < 1e-6, "far mean {m} should be y-mean 6");
    }

    #[test]
    fn noise_smooths_predictions() {
        let x = xs(&[0.0, 0.0, 0.0, 1.0]);
        let y = [1.0, 2.0, 3.0, 0.0]; // conflicting repeats need noise
        let gp = GpRegressor::fit(&x, &y, Matern52::new(1.0, 1.0), 0.5).unwrap();
        let (m, _) = gp.predict_into(&[0.0], &mut PredictScratch::default());
        assert!((m - 2.0).abs() < 0.5, "mean at repeated x: {m}");
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(
            GpRegressor::fit(&[], &[], Matern52::new(1.0, 1.0), 0.1).unwrap_err(),
            GpError::Empty
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let x = vec![vec![0.0], vec![0.0, 1.0]];
        let y = [1.0, 2.0];
        assert_eq!(
            GpRegressor::fit(&x, &y, Matern52::new(1.0, 1.0), 0.1).unwrap_err(),
            GpError::DimensionMismatch
        );
    }

    #[test]
    fn fit_auto_finds_reasonable_fit_on_smooth_function() {
        let points: Vec<f64> = (0..15).map(|i| f64::from(i) * 0.5).collect();
        let x = xs(&points);
        let y: Vec<f64> = points.iter().map(|p| (p * 0.8).sin() * 3.0).collect();
        let gp = GpRegressor::fit_auto(&x, &y, 1e-4).unwrap();
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
        let good = GpRegressor::fit(&x, &y, Matern52::new(1.0, 4.0), 1e-4)
            .unwrap()
            .log_marginal_likelihood();
        let bad = GpRegressor::fit(&x, &y, Matern52::new(1.0, 0.05), 1e-4)
            .unwrap()
            .log_marginal_likelihood();
        assert!(good > bad, "good {good} vs bad {bad}");
    }

    #[test]
    fn constant_targets_do_not_crash_fit_auto() {
        let x = xs(&[1.0, 2.0, 3.0]);
        let y = [5.0, 5.0, 5.0];
        let gp = GpRegressor::fit_auto(&x, &y, 1e-4).unwrap();
        let (m, _) = gp.predict_into(&[2.5], &mut PredictScratch::default());
        assert!((m - 5.0).abs() < 0.2);
    }

    #[test]
    fn extend_matches_full_refit_bitwise() {
        let x = xs(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        let y = [0.0, 1.0, 4.0, 9.0, 16.0];
        let kernel = Matern52::new(10.0, 1.5);
        let mut grown = GpRegressor::fit(&x[..3], &y[..3], kernel, 1e-4).unwrap();
        grown.extend(x[3].clone(), y[3]).unwrap();
        grown.extend(x[4].clone(), y[4]).unwrap();
        let full = GpRegressor::fit(&x, &y, kernel, 1e-4).unwrap();
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
        let mut gp = GpRegressor::fit(&x, &y, Matern52::new(1.0, 1.0), 1e-4).unwrap();
        let before = gp.predict_into(&[0.5], &mut PredictScratch::default());
        assert_eq!(
            gp.extend(vec![1.0, 2.0], 3.0).unwrap_err(),
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
        let x = xs(&points);
        let y: Vec<f64> = points.iter().map(|p| (p * 0.7).sin() * 2.0).collect();
        let kernel = Matern52::new(2.0, 3.0);
        let mut slid = GpRegressor::fit(&x[..5], &y[..5], kernel, 1e-4).unwrap();
        // Slide the window [0,5) → [3,8): drop + extend per step.
        for i in 5..8 {
            slid.drop_oldest().unwrap();
            slid.extend(x[i].clone(), y[i]).unwrap();
        }
        let fresh = GpRegressor::fit(&x[3..], &y[3..], kernel, 1e-4).unwrap();
        assert_eq!(slid.len(), 5);
        for q in [0.5, 3.5, 5.1, 9.0] {
            let (sm, sv) = slid.predict_into(&[q], &mut PredictScratch::default());
            let (fm, fv) = fresh.predict_into(&[q], &mut PredictScratch::default());
            assert!((sm - fm).abs() < 1e-9, "mean {sm} vs {fm} at {q}");
            assert!((sv - fv).abs() < 1e-9, "var {sv} vs {fv} at {q}");
        }
    }

    #[test]
    fn drop_oldest_rejects_last_point_without_corrupting() {
        let x = xs(&[0.0, 1.0]);
        let y = [0.0, 1.0];
        let mut gp = GpRegressor::fit(&x, &y, Matern52::new(1.0, 1.0), 1e-4).unwrap();
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
        let mut gp = GpRegressor::fit(&x, &y, Matern52::new(1.0, 1.0), 1e-4).unwrap();
        gp.drop_oldest().unwrap();
        gp.extend(vec![3.0], 8.0).unwrap();
        assert_eq!(gp.targets(), &[6.0, 7.0, 8.0]);
        assert_eq!(gp.inputs(), &[vec![1.0], vec![2.0], vec![3.0]]);
    }

    #[test]
    fn predict_into_with_reused_scratch_matches_fresh() {
        let x = xs(&[0.0, 1.0, 2.0]);
        let y = [1.0, -1.0, 2.0];
        let gp = GpRegressor::fit(&x, &y, Matern52::new(2.0, 1.0), 1e-4).unwrap();
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
        let gp = GpRegressor::fit_auto(&x, &y, 0.01).unwrap();
        let (m_peak, _) = gp.predict_into(&[10.0], &mut PredictScratch::default());
        let (m_edge, _) = gp.predict_into(&[0.0], &mut PredictScratch::default());
        assert!(m_peak > m_edge);
    }
}
