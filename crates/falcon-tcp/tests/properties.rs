//! Property-based tests for the TCP models.

use proptest::prelude::*;

use falcon_tcp::{
    bbr_rate_mbps, cubic_rate_mbps, hstcp_rate_mbps, loss_rate, mathis_rate_mbps, padhye_rate_mbps,
    window_to_mbps, CongestionControl, RateRamp,
};

proptest! {
    /// Every response function is positive and finite over the whole
    /// plausible operating range.
    #[test]
    fn responses_positive_and_finite(
        loss in 0.0f64..0.9,
        rtt in 1e-5f64..1.0,
        mss in 500.0f64..9000.0,
    ) {
        for r in [
            mathis_rate_mbps(loss, rtt, mss),
            padhye_rate_mbps(loss, rtt, mss),
            cubic_rate_mbps(loss, rtt, mss),
            hstcp_rate_mbps(loss, rtt, mss),
        ] {
            prop_assert!(r.is_finite() && r > 0.0, "rate {r}");
        }
    }

    /// Padhye (with timeouts) never exceeds pure Mathis.
    #[test]
    fn padhye_never_exceeds_mathis(
        loss in 1e-6f64..0.5,
        rtt in 1e-4f64..0.5,
    ) {
        prop_assert!(padhye_rate_mbps(loss, rtt, 1460.0) <= mathis_rate_mbps(loss, rtt, 1460.0) * 1.0001);
    }

    /// CUBIC and HSTCP never do worse than Mathis (Reno-friendly regions).
    #[test]
    fn highspeed_variants_dominate_reno(
        loss in 1e-7f64..0.5,
        rtt in 1e-4f64..0.5,
    ) {
        let m = mathis_rate_mbps(loss, rtt, 1460.0);
        prop_assert!(cubic_rate_mbps(loss, rtt, 1460.0) >= m * 0.9999);
        prop_assert!(hstcp_rate_mbps(loss, rtt, 1460.0) >= m * 0.9999);
    }

    /// BBR's rate never exceeds its bandwidth share and is loss-flat below
    /// the tolerance.
    #[test]
    fn bbr_bounded_by_share(loss in 0.0f64..1.0, share in 0.1f64..100_000.0) {
        let r = bbr_rate_mbps(loss, share);
        prop_assert!(r <= share * 1.0001);
        prop_assert!(r >= 0.0);
        if loss <= 0.2 {
            prop_assert!((r - share).abs() < 1e-9);
        }
    }

    /// window↔rate conversion is linear in both window and 1/RTT.
    #[test]
    fn window_conversion_linear(w in 0.1f64..1e5, rtt in 1e-5f64..1.0) {
        let one = window_to_mbps(w, 1460.0, rtt);
        let two = window_to_mbps(2.0 * w, 1460.0, rtt);
        prop_assert!((two - 2.0 * one).abs() < 1e-6 * two.abs().max(1.0));
        let half_rtt = window_to_mbps(w, 1460.0, rtt / 2.0);
        prop_assert!((half_rtt - 2.0 * one).abs() < 1e-6 * half_rtt.abs().max(1.0));
    }

    /// The sustainable rate of every CCA respects the fair share bound
    /// for loss-based flavours and is never negative.
    #[test]
    fn cca_rates_sane(
        loss in 0.0f64..0.5,
        rtt in 1e-4f64..0.5,
        share in 0.1f64..50_000.0,
    ) {
        for cca in CongestionControl::all() {
            let r = cca.sustainable_rate_mbps(loss, rtt, 1460.0, share);
            prop_assert!(r.is_finite() && r >= 0.0, "{}: {r}", cca.name());
            if cca != CongestionControl::Bbr {
                prop_assert!(r <= share * 1.0001, "{}: {r} > share {share}", cca.name());
            }
        }
    }

    /// Loss model output is always a probability and is monotone in
    /// offered load for fixed everything else.
    #[test]
    fn loss_is_probability_and_monotone_in_load(
        cap in 1.0f64..100_000.0,
        n in 1u32..500,
        rtt in 1e-4f64..0.5,
        load_frac in 0.0f64..4.0,
    ) {
        let l1 = loss_rate(cap * load_frac, cap, n, rtt, 1460.0);
        let l2 = loss_rate(cap * (load_frac + 0.2), cap, n, rtt, 1460.0);
        prop_assert!((0.0..=1.0).contains(&l1));
        prop_assert!(l2 >= l1 - 1e-12);
    }

    /// The rate ramp never overshoots its target and converges from any
    /// starting sequence of targets.
    #[test]
    fn ramp_never_overshoots(
        targets in proptest::collection::vec(0.0f64..10_000.0, 1..50),
        rtt in 1e-4f64..0.2,
    ) {
        let mut ramp = RateRamp::new(rtt);
        let mut upper = 0.0f64;
        for &t in &targets {
            upper = upper.max(t);
            let v = ramp.advance(t, 0.1);
            prop_assert!(v <= upper + 1e-9, "rate {v} above max target {upper}");
            prop_assert!(v >= 0.0);
        }
        // Long settle at the final target converges to it.
        let last = *targets.last().unwrap();
        for _ in 0..500 {
            ramp.advance(last, 0.1);
        }
        prop_assert!((ramp.rate_mbps() - last).abs() < 0.02 * last.max(1.0));
    }
}
