//! First-order rate convergence filter.
//!
//! Real TCP connections do not jump to their steady-state rate: slow start
//! and congestion avoidance take several RTTs (seconds, in long fat
//! networks — the paper's stated reason sample transfers need 3–5 s). The
//! fluid simulator applies this filter to each connection so that throughput
//! samples taken too early underestimate a setting, exactly the measurement
//! noise the online optimizers must tolerate.

/// Exponential approach of the actual rate toward a target rate.
#[derive(Debug, Clone, Copy)]
pub struct RateRamp {
    /// Current smoothed rate (Mbps).
    rate_mbps: f64,
    /// Time constant (seconds) of the exponential approach when ramping up.
    tau_up_s: f64,
    /// Time constant when backing off. Loss-based TCP reduces its window
    /// multiplicatively, so downward convergence is faster.
    tau_down_s: f64,
}

impl RateRamp {
    /// Create a ramp starting from zero rate.
    ///
    /// `rtt_s` scales the time constants: ramp-up takes a few tens of RTTs
    /// (slow start doubling plus congestion-avoidance approach), with a lower
    /// bound so that even sub-millisecond-RTT LANs take a noticeable fraction
    /// of a second to converge (process spawn + file open costs).
    pub fn new(rtt_s: f64) -> Self {
        let tau_up = (rtt_s * 25.0).clamp(0.3, 3.0);
        let tau_down = (rtt_s * 8.0).clamp(0.1, 1.0);
        RateRamp {
            rate_mbps: 0.0,
            tau_up_s: tau_up,
            tau_down_s: tau_down,
        }
    }

    /// Create a ramp with explicit time constants (used in tests).
    pub fn with_taus(tau_up_s: f64, tau_down_s: f64) -> Self {
        RateRamp {
            rate_mbps: 0.0,
            tau_up_s,
            tau_down_s,
        }
    }

    /// Current smoothed rate.
    #[inline]
    pub fn rate_mbps(&self) -> f64 {
        self.rate_mbps
    }

    /// Advance the filter by `dt_s` toward `target_mbps` and return the new
    /// smoothed rate.
    pub fn advance(&mut self, target_mbps: f64, dt_s: f64) -> f64 {
        debug_assert!(dt_s >= 0.0);
        let tau = if target_mbps >= self.rate_mbps {
            self.tau_up_s
        } else {
            self.tau_down_s
        };
        let alpha = 1.0 - (-dt_s / tau).exp();
        self.rate_mbps += (target_mbps - self.rate_mbps) * alpha;
        self.rate_mbps
    }

    /// Advance the filter by `dt_s` toward `target_mbps` and return
    /// `(new_rate, integral)` where `integral` is `∫₀^dt r(t) dt` in
    /// megabits — the exact bytes-on-the-wire contribution of this
    /// connection over the interval.
    ///
    /// The exponential approach has a closed form on any interval where the
    /// target (and therefore the ramp direction) is constant:
    ///
    /// ```text
    /// r(t)    = target + (r₀ − target)·e^(−t/τ)
    /// ∫₀^Δ r  = target·Δ + (r₀ − target)·τ·(1 − e^(−Δ/τ))
    /// ```
    ///
    /// The discrete-event engine uses this to advance a whole inter-event
    /// segment in one call; `advance` remains the per-tick form and agrees
    /// with this one up to float rounding (the exponential is a semigroup:
    /// n steps of `dt` compose to one step of `n·dt`). The segment length
    /// Δ is `segment`'s; every ramp advanced through one [`DecayMemo`]
    /// shares its `e^(−Δ/τ)` per distinct τ.
    pub fn advance_integrated(&mut self, target_mbps: f64, segment: &mut DecayMemo) -> (f64, f64) {
        let tau = if target_mbps >= self.rate_mbps {
            self.tau_up_s
        } else {
            self.tau_down_s
        };
        let dt_s = segment.dt_s;
        let gap = self.rate_mbps - target_mbps;
        let decay = segment.decay(tau);
        let integral = target_mbps * dt_s + gap * tau * (1.0 - decay);
        self.rate_mbps = target_mbps + gap * decay;
        (self.rate_mbps, integral)
    }

    /// Whether `other` has bit-identical rate and time constants, so that
    /// any sequence of advances keeps the two ramps bit-identical.
    pub fn same_state(&self, other: &RateRamp) -> bool {
        self.rate_mbps.to_bits() == other.rate_mbps.to_bits()
            && self.tau_up_s.to_bits() == other.tau_up_s.to_bits()
            && self.tau_down_s.to_bits() == other.tau_down_s.to_bits()
    }

    /// Force the rate (used when a connection is torn down).
    pub fn reset(&mut self) {
        self.rate_mbps = 0.0;
    }
}

/// One integration segment's length Δ and its decays `e^(−Δ/τ)`, each
/// computed once per distinct τ. Ramps created under one RTT share their
/// two time constants, so a segment over thousands of connections costs
/// two `exp` calls instead of one per connection. The memo is keyed by
/// τ's bits, so every decay is bit-identical to `(-Δ / τ).exp()`.
#[derive(Debug, Clone)]
pub struct DecayMemo {
    dt_s: f64,
    len: usize,
    /// `(τ bits, e^(−Δ/τ))`: up and down for two RTT classes before a
    /// further τ is computed without being remembered.
    entries: [(u64, f64); 4],
}

impl DecayMemo {
    /// An empty memo for a segment of `dt_s` seconds.
    pub fn new(dt_s: f64) -> Self {
        debug_assert!(dt_s >= 0.0);
        DecayMemo {
            dt_s,
            len: 0,
            entries: [(0, 0.0); 4],
        }
    }

    fn decay(&mut self, tau_s: f64) -> f64 {
        let key = tau_s.to_bits();
        if let Some(&(_, d)) = self.entries[..self.len].iter().find(|e| e.0 == key) {
            return d;
        }
        let d = (-self.dt_s / tau_s).exp();
        if let Some(slot) = self.entries.get_mut(self.len) {
            *slot = (key, d);
            self.len += 1;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        /// Every decay a segment's memo hands out is `(-Δ/τ).exp()` bit
        /// for bit, and a ramp advanced through the memo lands exactly
        /// where the closed form with a fresh `exp` puts it: ramps of two
        /// or three RTT classes, each step heading up or down.
        #[test]
        fn memoized_decay_is_bit_identical_to_exp(
            rtts in vec(1e-4f64..0.2, 2..4),
            dt in 0.0f64..20.0,
            steps in vec((0usize..3, 0.0f64..1000.0), 1..40),
        ) {
            let mut ramps: Vec<RateRamp> = rtts.iter().map(|&rtt| RateRamp::new(rtt)).collect();
            let mut memo = DecayMemo::new(dt);
            for (class, target) in steps {
                let ramp = &mut ramps[class % rtts.len()];
                let tau = if target >= ramp.rate_mbps { ramp.tau_up_s } else { ramp.tau_down_s };
                let fresh = (-dt / tau).exp();
                prop_assert_eq!(memo.decay(tau).to_bits(), fresh.to_bits());
                let gap = ramp.rate_mbps - target;
                let want_end = target + gap * fresh;
                let want_integral = target * dt + gap * tau * (1.0 - fresh);
                let (end, integral) = ramp.advance_integrated(target, &mut memo);
                prop_assert_eq!(end.to_bits(), want_end.to_bits());
                prop_assert_eq!(integral.to_bits(), want_integral.to_bits());
            }
        }
    }

    #[test]
    fn starts_at_zero() {
        let r = RateRamp::new(0.03);
        assert_eq!(r.rate_mbps(), 0.0);
    }

    #[test]
    fn approaches_target_monotonically() {
        let mut r = RateRamp::with_taus(1.0, 0.5);
        let mut prev = 0.0;
        for _ in 0..100 {
            let v = r.advance(100.0, 0.1);
            assert!(v >= prev);
            assert!(v <= 100.0);
            prev = v;
        }
        assert!(prev > 99.0, "should be converged, got {prev}");
    }

    #[test]
    fn one_tau_covers_63_percent() {
        let mut r = RateRamp::with_taus(1.0, 0.5);
        r.advance(100.0, 1.0);
        let v = r.rate_mbps();
        assert!((v - 63.2).abs() < 0.5, "got {v}");
    }

    #[test]
    fn backoff_is_faster_than_rampup() {
        let mut r = RateRamp::with_taus(2.0, 0.2);
        // Converge up.
        for _ in 0..200 {
            r.advance(100.0, 0.1);
        }
        let up = r.rate_mbps();
        // One step down.
        r.advance(10.0, 0.1);
        let after_down = r.rate_mbps();
        let down_fraction = (up - after_down) / (up - 10.0);
        // With tau_down = 0.2s, one 0.1s step covers ~39%.
        assert!(down_fraction > 0.3, "down fraction {down_fraction}");
    }

    #[test]
    fn reset_zeroes_rate() {
        let mut r = RateRamp::new(0.03);
        r.advance(50.0, 10.0);
        assert!(r.rate_mbps() > 0.0);
        r.reset();
        assert_eq!(r.rate_mbps(), 0.0);
    }

    #[test]
    fn integrated_advance_matches_many_small_steps() {
        // Semigroup property: one analytic 5 s segment lands where 5000
        // ticks of 1 ms land, and the integral matches the Riemann sum.
        let mut ticked = RateRamp::with_taus(1.3, 0.4);
        let mut analytic = ticked;
        let dt = 0.001;
        let mut riemann = 0.0;
        for _ in 0..5000 {
            riemann += ticked.advance(80.0, dt) * dt;
        }
        let (end, integral) = analytic.advance_integrated(80.0, &mut DecayMemo::new(5.0));
        assert!((end - ticked.rate_mbps()).abs() < 1e-6, "end {end}");
        // Right-Riemann overestimates a rising curve by O(dt).
        assert!(
            (integral - riemann).abs() < 80.0 * dt * 2.0,
            "integral {integral} vs riemann {riemann}"
        );
    }

    #[test]
    fn integrated_advance_integral_is_exact_at_steady_state() {
        let mut r = RateRamp::with_taus(1.0, 0.5);
        r.advance(100.0, 1000.0); // converge
        let (end, integral) = r.advance_integrated(100.0, &mut DecayMemo::new(7.5));
        assert!((end - 100.0).abs() < 1e-9);
        assert!((integral - 750.0).abs() < 1e-6, "integral {integral}");
    }

    #[test]
    fn integrated_advance_handles_downward_segments() {
        let mut r = RateRamp::with_taus(2.0, 0.2);
        r.advance(100.0, 1000.0);
        let (end, integral) = r.advance_integrated(10.0, &mut DecayMemo::new(1.0));
        // τ_down = 0.2 s → essentially converged after 5τ.
        assert!((end - 10.0).abs() < 1.0, "end {end}");
        // Integral between the endpoint rates × duration.
        assert!(integral > 10.0 && integral < 100.0, "integral {integral}");
    }

    #[test]
    fn lan_ramp_bounded_below() {
        // 0.1 ms RTT must still take a meaningful fraction of a second.
        let mut r = RateRamp::new(0.0001);
        r.advance(100.0, 0.05);
        assert!(r.rate_mbps() < 40.0, "LAN ramp too fast: {}", r.rate_mbps());
    }
}
