//! Incremental GP surrogate cache shared by the Bayesian optimizers.
//!
//! A full `fit_auto` refit is an O(n³) factorization times a 12-point
//! hyperparameter grid (factored in lockstep, but still the expensive
//! path); updating an already-factored GP is O(n²) (append via
//! [`GpRegressor::extend`] while the window fills, then append and evict
//! with one re-solve via [`GpRegressor::slide`]).
//! The cache keeps the GP on a **true sliding window**: every surrogate
//! probe appends the newest observation and drops the oldest once the
//! window is full, under the normalization constants frozen at the last
//! full refit — mixing constants would put the GP's targets on two
//! different scales.
//!
//! Full refits are *drift-keyed* rather than scheduled: the per-point
//! average log marginal likelihood is recorded at refit time, and a refit
//! is due only when the current model explains its window worse than that
//! reference by [`DRIFT_NATS`] nats/point (the hyperparameters or the
//! normalization have gone stale), when an incoming observation lands far
//! outside the frozen normalization ([`Y_NORM_LIMIT`]), or as a safety
//! backstop after [`MAX_EXTENDS`] incremental updates. On a stationary
//! landscape the expensive hyper-grid refit effectively disappears from
//! the steady-state probe path; a regime change triggers one immediately.

use falcon_gp::{GpRegressor, Points};

/// Refit when the per-point average log marginal likelihood has fallen
/// this many nats below its value at the last refit. Utility landscapes in
/// the probe streams we care about move the average by well over this on a
/// regime change (link flap, optimum shift) while steady-state noise stays
/// an order of magnitude under it.
pub const DRIFT_NATS: f64 = 0.25;

/// Refit when an incoming normalized target magnitude exceeds this — the
/// frozen normalization no longer covers the data (e.g. throughput
/// collapsed), so appending under it would squash the new regime.
pub const Y_NORM_LIMIT: f64 = 4.0;

/// Hard ceiling on incremental updates between full refits: a numerical
/// backstop (rank-1 downdate error accumulates at ~1e-12 per slide) and a
/// guarantee that hyperparameters are revisited even when drift never
/// trips. The cadence matters behaviorally, not just numerically: on a
/// *flat* utility landscape (a degraded link saturates at tiny
/// concurrency) the marginal likelihood barely moves, so drift never
/// fires, and hyperparameters frozen from the previous regime keep
/// between-points posterior variance large — EI then chases unexplored
/// candidates indefinitely and the decision stream never settles.
/// Periodic refits let `fit_auto` re-attribute that flat data to noise,
/// which collapses the σ bumps and lets the search latch; 16 keeps the
/// amortized refit cost (~30 µs / 16 since `fit_auto` factors its grid in
/// lockstep; ~100 µs / 16 before) well inside the decision budget where 5
/// (the old fixed cadence) did not.
pub const MAX_EXTENDS: usize = 16;

/// A fitted GP plus the target-normalization constants it was built with.
pub struct CachedSurrogate {
    /// The fitted model (targets normalized; see [`CachedSurrogate::fit`]).
    pub gp: GpRegressor,
    /// Mean of the raw utilities at the last full refit.
    y_mean: f64,
    /// Standard deviation of the raw utilities at the last full refit.
    y_std: f64,
    /// Best normalized utility among the GP's training targets.
    pub best_y: f64,
    /// Incremental updates since the last full refit.
    extends: usize,
    /// Per-point average log marginal likelihood at the last full refit —
    /// the drift reference.
    lml_ref: f64,
}

impl CachedSurrogate {
    /// Fit from scratch: normalize `ys_raw` to zero mean / unit variance
    /// (so kernel hyper-grids and the noise variance are scale-free) and
    /// run the `fit_auto` hyperparameter grid. `None` when fitting fails.
    pub fn fit(xs: Points<'_>, ys_raw: &[f64], noise_variance: f64) -> Option<Self> {
        let n = ys_raw.len() as f64;
        let mean = ys_raw.iter().sum::<f64>() / n;
        let var = ys_raw.iter().map(|y| (y - mean) * (y - mean)).sum::<f64>() / n;
        let std = var.sqrt().max(1e-9);
        let ys: Vec<f64> = ys_raw.iter().map(|y| (y - mean) / std).collect();
        let gp = GpRegressor::fit_auto(xs, &ys, noise_variance).ok()?;
        let lml_ref = gp.log_marginal_likelihood() / n;
        Some(CachedSurrogate {
            gp,
            y_mean: mean,
            y_std: std,
            best_y: ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            extends: 0,
            lml_ref,
        })
    }

    /// Whether the next surrogate probe should re-fit from scratch instead
    /// of sliding incrementally: model-quality drift beyond [`DRIFT_NATS`]
    /// nats/point relative to the last refit, or the [`MAX_EXTENDS`]
    /// backstop.
    pub fn due_for_refit(&self) -> bool {
        if self.extends >= MAX_EXTENDS {
            return true;
        }
        let avg = self.gp.log_marginal_likelihood() / self.gp.len() as f64;
        self.lml_ref - avg > DRIFT_NATS
    }

    /// Slide the window by one observation under the frozen normalization:
    /// append `(x, y_raw)`, then evict oldest points until at most
    /// `window` remain. Returns `false` (model unchanged or left valid but
    /// stale) when the incremental path refuses — the observation lands
    /// outside the frozen normalization, or a rank-1 update fails — in
    /// which case the caller must fall back to a full refit.
    pub fn slide(&mut self, x: &[f64], y_raw: f64, window: usize) -> bool {
        let y = (y_raw - self.y_mean) / self.y_std;
        if y.abs() > Y_NORM_LIMIT {
            return false;
        }
        let stepped = if self.gp.len() < window.max(1) {
            self.gp.extend(x, y)
        } else {
            self.gp.slide(x, y)
        };
        if stepped.is_err() {
            return false;
        }
        while self.gp.len() > window.max(1) {
            if self.gp.drop_oldest().is_err() {
                return false;
            }
        }
        self.extends += 1;
        // The evicted point may have been the incumbent: recompute from
        // the (normalized) targets actually in the window.
        self.best_y = self
            .gp
            .targets()
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        true
    }
}
