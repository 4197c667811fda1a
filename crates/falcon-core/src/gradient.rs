//! Online Gradient Descent search (§3.2).
//!
//! For a current concurrency `n`, the optimizer runs two sample transfers at
//! `n−ε` and `n+ε` (ε = 1, since concurrency is integral), estimates the
//! gradient from their utilities, converts it to a *relative* rate of change
//! `Δ = γ / u(n−ε)`, and predicts the next value `n ← n + θ·Δ·scale`. The
//! confidence factor θ starts small and grows while consecutive rounds agree
//! on the search direction, resetting when the direction flips — the paper's
//! dynamic step-size policy. After convergence the search keeps probing
//! `n±1` forever, which is the 9 ↔ 11 bounce visible in Figure 9(a).

use falcon_trace::{Candidate, TraceEvent, Tracer};

use crate::optimizer::{Observation, OnlineOptimizer};
use crate::settings::{SearchBounds, TransferSettings};

/// Starting concurrency (paper's traces start at 2).
const START: u32 = 2;

/// Initial confidence factor θ₀.
const THETA0: f64 = 1.0;

/// Multiplicative growth of θ while the direction is stable.
const THETA_GROWTH: f64 = 2.0;

/// Upper cap on θ.
const THETA_MAX: f64 = 8.0;

/// Scale applied to the relative slope when predicting the step.
const STEP_GAIN: f64 = 2.0;

/// Relative slope magnitude below which the search holds position
/// (measurement noise floor).
const MIN_REL_SLOPE: f64 = 0.001;

/// Largest step per round, as a fraction of the current center (with an
/// absolute floor of 4): prevents confidence-driven overshoot past the
/// optimum while still allowing fast geometric growth.
const MAX_STEP_FRAC: f64 = 0.35;

/// Per-round decay of the per-concurrency utility averages (1.0 = no
/// memory: every slope uses only this round's two probes). Near an optimum
/// the true restoring slope is far below the sampling noise, so a single
/// two-point difference cannot see it. The probe bounce revisits the same
/// `n±1` positions round after round, so keeping a decayed running mean of
/// utility *per concurrency value* averages the noise away exactly where it
/// matters, while fresh territory (convergence phase) still reacts to raw
/// slopes at full speed because new positions have no history.
const AVG_DECAY: f64 = 0.75;

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Waiting for the round's first probe.
    First,
    /// Waiting for the round's second probe; carries the first utility.
    Second { u_first: f64 },
}

/// Online Gradient Descent optimizer state.
#[derive(Debug, Clone)]
pub struct GradientDescentOptimizer {
    /// Inclusive concurrency range.
    bounds: (u32, u32),
    center: u32,
    phase: Phase,
    theta: f64,
    last_direction: i64,
    /// Decayed running mean of utility per concurrency value:
    /// `(n, mean, weight)`. Entries fade with [`AVG_DECAY`] per
    /// round and are dropped once negligible.
    u_cache: Vec<(u32, f64, f64)>,
    /// Whether this round probes `n+ε` before `n−ε`. Re-drawn every round
    /// from `order_rng`: a competing transfer probing at the same cadence
    /// alternates its own ±ε in lockstep, which turns its perturbation into
    /// a *systematic* bias on our two-point difference. Randomizing the
    /// probe order (as SPSA randomizes perturbation signs) makes that bias
    /// zero-mean, so competing searches stop see-sawing each other away
    /// from the fair equilibrium.
    order_flipped: bool,
    order_rng: u64,
    tracer: Tracer,
}

impl GradientDescentOptimizer {
    /// New concurrency-only search in `[1, max_concurrency]`.
    pub fn new(max_concurrency: u32) -> Self {
        GradientDescentOptimizer {
            bounds: SearchBounds::concurrency_only(max_concurrency).concurrency,
            center: START,
            phase: Phase::First,
            theta: THETA0,
            last_direction: 0,
            u_cache: Vec::new(),
            order_flipped: false,
            order_rng: 0x9E37_79B9_7F4A_7C15,
            tracer: Tracer::default(),
        }
    }

    /// Draw the probe order for the next round (xorshift64*).
    fn redraw_order(&mut self) {
        let mut x = self.order_rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.order_rng = x;
        self.order_flipped = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 63) == 1;
    }

    /// Fold one utility measurement into the per-position running mean and
    /// return the updated mean for that position.
    fn record_utility(&mut self, n: u32, u: f64) -> f64 {
        if let Some(entry) = self.u_cache.iter_mut().find(|e| e.0 == n) {
            entry.2 += 1.0;
            entry.1 += (u - entry.1) / entry.2;
            entry.1
        } else {
            self.u_cache.push((n, u, 1.0));
            u
        }
    }

    /// Age the cache by one round.
    fn decay_cache(&mut self) {
        for e in &mut self.u_cache {
            e.2 *= AVG_DECAY;
        }
        self.u_cache.retain(|e| e.2 >= 0.05);
    }

    /// Current center of the search.
    pub fn center(&self) -> u32 {
        self.center
    }

    /// Current confidence factor θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    fn low_probe(&self) -> u32 {
        let (lo, _) = self.bounds;
        self.center.saturating_sub(1).max(lo)
    }

    fn high_probe(&self) -> u32 {
        let (_, hi) = self.bounds;
        (self.center + 1).min(hi)
    }
}

impl OnlineOptimizer for GradientDescentOptimizer {
    fn name(&self) -> &'static str {
        "gradient-descent"
    }

    fn initial(&self) -> TransferSettings {
        let first = if self.order_flipped {
            self.high_probe()
        } else {
            self.low_probe()
        };
        TransferSettings::with_concurrency(first)
    }

    fn next(&mut self, obs: &Observation) -> TransferSettings {
        match self.phase {
            Phase::First => {
                self.phase = Phase::Second {
                    u_first: obs.utility,
                };
                let second = if self.order_flipped {
                    self.low_probe()
                } else {
                    self.high_probe()
                };
                TransferSettings::with_concurrency(second)
            }
            Phase::Second { u_first } => {
                let (u_low, u_high) = if self.order_flipped {
                    (obs.utility, u_first)
                } else {
                    (u_first, obs.utility)
                };
                // γ estimated over the 2ε span; relative form Δ = γ / u(n−ε).
                let denom = u_low.abs().max(1e-9);
                let raw_slope = (u_high - u_low) / (2.0 * denom);
                // The step itself uses the noise-averaged utilities at the
                // two probe positions.
                self.decay_cache();
                let (probed_low, probed_high) = (self.low_probe(), self.high_probe());
                let mean_low = self.record_utility(probed_low, u_low);
                let mean_high = self.record_utility(probed_high, u_high);
                let span = f64::from(self.high_probe().saturating_sub(self.low_probe()).max(1));
                let mean_denom = mean_low.abs().max(1e-9);
                let rel_slope = (mean_high - mean_low) / (span * mean_denom);

                if rel_slope.abs() >= MIN_REL_SLOPE {
                    // θ confidence is keyed on the *raw* slope sign, not the
                    // smoothed one: successive raw estimates are independent,
                    // so consecutive agreement is real evidence of a gradient
                    // (during convergence) while equilibrium noise produces
                    // coin-flip signs that keep θ low. Chaining θ on the EMA
                    // sign would let one noise spike persist in the average
                    // for several rounds and launch a spurious excursion.
                    let raw_direction = if raw_slope > 0.0 { 1 } else { -1 };
                    if raw_direction == self.last_direction {
                        self.theta = (self.theta * THETA_GROWTH).min(THETA_MAX);
                    } else {
                        self.theta = THETA0;
                    }
                    self.last_direction = raw_direction;

                    let direction = if rel_slope > 0.0 { 1 } else { -1 };
                    let step = self.theta * STEP_GAIN * rel_slope * f64::from(self.center.max(1));
                    let cap = (MAX_STEP_FRAC * f64::from(self.center)).max(4.0);
                    let step = step.clamp(-cap, cap).round() as i64;
                    let step = if step == 0 {
                        i64::from(direction)
                    } else {
                        step
                    };
                    let (lo, hi) = self.bounds;
                    let next = (i64::from(self.center) + step).clamp(i64::from(lo), i64::from(hi));
                    self.center = next as u32;
                } else {
                    // Flat within noise: hold position, lose confidence.
                    self.theta = THETA0;
                    self.last_direction = 0;
                }
                self.tracer.emit(|| TraceEvent::Decision {
                    optimizer: "gradient-descent".to_string(),
                    concurrency: self.center,
                    parallelism: 1,
                    pipelining: 1,
                    terms: vec![
                        ("raw_slope".to_string(), raw_slope),
                        ("rel_slope".to_string(), rel_slope),
                        ("theta".to_string(), self.theta),
                    ],
                    candidates: vec![
                        Candidate {
                            concurrency: probed_low,
                            parallelism: 1,
                            utility: mean_low,
                        },
                        Candidate {
                            concurrency: probed_high,
                            parallelism: 1,
                            utility: mean_high,
                        },
                    ],
                });
                self.phase = Phase::First;
                self.redraw_order();
                self.initial()
            }
        }
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ProbeMetrics;
    use crate::testkit::{drive, drive_with, emulab48};
    use crate::utility::UtilityFunction;

    /// (probe trace, centers) on a concurrency curve under Eq 4.
    fn drive_gd(
        opt: &mut GradientDescentOptimizer,
        f: impl Fn(u32) -> f64,
        probes: usize,
    ) -> (Vec<u32>, Vec<u32>) {
        let eq4 = UtilityFunction::falcon_default();
        let read = |o: &GradientDescentOptimizer, s: TransferSettings| (s.concurrency, o.center());
        drive_with(opt, eq4, |s| f(s.concurrency), probes, read)
            .into_iter()
            .unzip()
    }

    #[test]
    fn converges_to_48_much_faster_than_hill_climbing() {
        let mut opt = GradientDescentOptimizer::new(100);
        let (_, centers) = drive_gd(&mut opt, emulab48, 40);
        let first_hit = centers.iter().position(|&c| (44..=52).contains(&c));
        let hit = first_hit.expect("never reached the optimum region");
        // Hill climbing needs ~47 probes; GD must need far fewer.
        assert!(hit <= 18, "took {hit} probes: {centers:?}");
    }

    #[test]
    fn stays_near_optimum_after_convergence() {
        let mut opt = GradientDescentOptimizer::new(100);
        let (trace, centers) = drive_gd(&mut opt, emulab48, 80);
        let tail = &centers[40..];
        assert!(
            tail.iter().all(|&c| (42..=56).contains(&c)),
            "tail: {tail:?}"
        );
        // Probes keep bouncing around the center (continuous optimization).
        let probe_tail = &trace[40..];
        assert!(probe_tail.iter().any(|&c| c != probe_tail[0]));
    }

    #[test]
    fn theta_grows_on_consistent_direction() {
        let mut opt = GradientDescentOptimizer::new(100);
        let t0 = opt.theta();
        drive(&mut opt, emulab48, 8);
        assert!(opt.theta() > t0, "theta did not grow: {}", opt.theta());
    }

    #[test]
    fn theta_resets_when_direction_flips() {
        let mut opt = GradientDescentOptimizer::new(100);
        drive(&mut opt, emulab48, 8);
        let grown = opt.theta();
        assert!(grown > 1.0);
        // Landscape flips: high concurrency now bad.
        drive(&mut opt, |n| 500.0 / f64::from(n.max(1)), 4);
        assert!(opt.theta() <= grown, "theta should have reset/shrunk");
    }

    #[test]
    fn respects_bounds() {
        let mut opt = GradientDescentOptimizer::new(12);
        let (trace, centers) = drive_gd(&mut opt, |n| f64::from(n) * 50.0, 40);
        assert!(trace.iter().all(|&c| (1..=12).contains(&c)));
        assert!(centers.iter().any(|&c| c >= 11));
    }

    #[test]
    fn flat_throughput_drives_concurrency_to_one() {
        // Flat *aggregate* throughput means extra concurrency buys nothing,
        // so the Kⁿ regret makes utility strictly decreasing in n: the
        // optimizer must settle at the minimum.
        let mut opt = GradientDescentOptimizer::new(64);
        let (_, centers) = drive_gd(&mut opt, |_| 500.0, 30);
        let tail = &centers[10..];
        assert!(tail.iter().all(|&c| c <= 2), "centers: {centers:?}");
    }

    #[test]
    fn adapts_downward_when_optimum_shrinks() {
        let mut opt = GradientDescentOptimizer::new(100);
        drive(&mut opt, emulab48, 40);
        assert!(opt.center() >= 42);
        // Background traffic arrives: only ~10 streams now useful.
        let (_, centers) = drive_gd(&mut opt, |n| f64::from(n.min(10)) * 21.0, 60);
        let tail = centers.last().copied().unwrap();
        assert!(tail <= 20, "failed to adapt down: {centers:?}");
    }

    #[test]
    fn probes_alternate_below_and_above_center() {
        let mut opt = GradientDescentOptimizer::new(64);
        // First probe is center−1 = 1, then center+1 = 3.
        assert_eq!(opt.initial().concurrency, 1);
        let m = ProbeMetrics::from_aggregate(TransferSettings::with_concurrency(1), 21.0, 0.0, 5.0);
        let s = opt.next(&Observation {
            settings: m.settings,
            utility: 20.0,
            metrics: m,
        });
        assert_eq!(s.concurrency, 3);
    }
}
