//! Bottleneck packet-loss model.
//!
//! Reproduces the empirical loss-vs-concurrency behaviour of the paper's
//! Figure 4 (Emulab topology, 100 Mbps bottleneck, 10 Mbps per-process I/O
//! throttle): loss stays below ~2% while the number of connections is at or
//! below the saturation point (10), then grows steeply — about 10% at 32
//! connections (3.2x over-subscription).
//!
//! The model is grounded in the TCP equilibrium argument: when a link is
//! saturated by `n` loss-based TCP flows, each flow's congestion window at
//! equilibrium is `W = C·RTT/(n·MSS)` segments, and the square-root law
//! (`W ≈ sqrt(3/2p)`) inverts to a loss rate that *grows* as the per-flow
//! share shrinks:
//!
//! ```text
//! L_eq ∝ (n·MSS·8 / (C·RTT))^β
//! ```
//!
//! The loss *onset* in `x` is steep: flows whose equilibrium windows have
//! tens of segments of headroom (small `x`) almost never collide at a
//! barely-saturated queue, while flows squeezed into a handful of segments
//! (large `x`) collide constantly. We model this with a sigmoid
//! suppression, `L = knee · k · x · x⁶/(x⁶ + x_c⁶)`, with `k = 1`,
//! `x_c = 0.042`. This hits both calibration points of Figure 4 (≈1.5% at
//! n = 10, ≈12% at n = 32 on the 100 Mbps/30 ms link) while keeping loss
//! negligible (<0.03%) for up to ~60 flows on a 1 Gbps/30 ms path and
//! essentially zero on multi-gigabit WANs — the scale-dependence a
//! constant-loss model cannot capture, the reason the paper's §3.1
//! observes "little to no packet loss" in production systems, and (with
//! `B = 10`) the boundary condition that lets competing utilities cross
//! the saturation point the way the paper's Figure 6(c) agents do.
//!
//! Below saturation only the noise floor remains. There is deliberately no
//! extra over-subscription term: TCP senders are elastic, so persistent
//! overload does not add loss beyond the per-flow equilibrium the `n`-term
//! already captures (an inelastic term here would wrongly collapse
//! long-RTT paths whose demand merely *would* exceed capacity).

/// Utilization above which the link is saturated and equilibrium loss
/// kicks in.
const SATURATION_UTILIZATION: f64 = 0.98;

/// Coefficient `k` of the TCP equilibrium loss term.
const EQ_COEFF: f64 = 1.0;

/// Exponent `β` of the TCP equilibrium loss term.
const EQ_EXPONENT: f64 = 1.0;

/// Scale `x_c` of the large-window suppression sigmoid `x⁶/(x⁶+x_c⁶)`:
/// below this inverse-window scale, flows have enough window headroom that
/// queue collisions are rare and loss collapses.
const WINDOW_SUPPRESSION_X: f64 = 0.042;

/// Random loss present regardless of load (link-layer noise). Nearly zero
/// in the paper's wired research networks.
const FLOOR: f64 = 5e-7;

/// Packet-loss rate of a single shared bottleneck link.
///
/// * `offered_mbps` — aggregate load the senders would push absent loss
///   (each connection capped by its upstream constraints, e.g. the
///   per-process I/O throttle).
/// * `capacity_mbps` — link capacity.
/// * `n_connections` — total TCP connections traversing the link.
/// * `rtt_s`, `mss_bytes` — path parameters of the flows (the per-flow
///   equilibrium window, and hence the equilibrium loss, depends on them).
#[must_use]
pub fn loss_rate(
    offered_mbps: f64,
    capacity_mbps: f64,
    n_connections: u32,
    rtt_s: f64,
    mss_bytes: f64,
) -> f64 {
    if capacity_mbps <= 0.0 {
        return 1.0;
    }
    let u = (offered_mbps / capacity_mbps).max(0.0);
    let mut loss = FLOOR;
    if u > SATURATION_UTILIZATION && n_connections > 0 {
        // Inverse per-flow share in window units: n·MSS·8 / (C·RTT).
        let x =
            f64::from(n_connections) * mss_bytes * 8.0 / (capacity_mbps * 1e6 * rtt_s.max(1e-6));
        let knee = ((u - SATURATION_UTILIZATION) / (1.0 - SATURATION_UTILIZATION)).min(1.0);
        let r6 = (x / WINDOW_SUPPRESSION_X).powi(6);
        let suppression = r6 / (1.0 + r6);
        loss += knee * EQ_COEFF * x.powf(EQ_EXPONENT) * suppression;
    }
    loss.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RTT: f64 = 0.030;
    const MSS: f64 = 1460.0;

    /// Figure 4 setup: 100 Mbps link, 10 Mbps per-process throttle, so
    /// concurrency `n` offers `10·n` Mbps over `n` connections.
    fn fig4_loss(n: u32) -> f64 {
        loss_rate(10.0 * f64::from(n), 100.0, n, RTT, MSS)
    }

    #[test]
    fn negligible_loss_below_saturation() {
        for n in 1..=9 {
            assert!(fig4_loss(n) < 0.001, "n={n}: {}", fig4_loss(n));
        }
    }

    #[test]
    fn below_two_percent_at_saturation_point() {
        // Paper: "packet loss is below 2% when concurrency is smaller than 10".
        let l = fig4_loss(10);
        assert!(l < 0.02, "loss at n=10 was {l}");
        assert!(
            l > 0.005,
            "loss at saturation should be noticeable, got {l}"
        );
    }

    #[test]
    fn around_ten_percent_at_32() {
        // Paper: "reaches to 10% for concurrency value of 32".
        let l = fig4_loss(32);
        assert!((0.07..=0.13).contains(&l), "loss at n=32 was {l}");
    }

    #[test]
    fn monotone_in_concurrency_when_saturated() {
        let mut prev = 0.0;
        for n in 1..=64 {
            let l = fig4_loss(n);
            assert!(l >= prev - 1e-12, "loss decreased at n={n}");
            prev = l;
        }
    }

    #[test]
    fn equilibrium_loss_is_scale_dependent() {
        // The same 10-connection full-utilization state on a 10x faster link
        // produces far lower loss: each flow runs a larger window and needs
        // fewer loss events to stay in equilibrium.
        let slow = loss_rate(100.0, 100.0, 10, RTT, MSS);
        let fast = loss_rate(1000.0, 1000.0, 10, RTT, MSS);
        assert!(
            fast < slow / 10.0,
            "fast-link loss {fast} not ≪ slow-link loss {slow}"
        );
        // ~0.03% on the 1 Gbps path: production systems see "little to no
        // packet loss" (paper §3.1).
        assert!(fast < 0.001, "got {fast}");
    }

    #[test]
    fn zero_capacity_means_total_loss() {
        assert_eq!(loss_rate(10.0, 0.0, 1, RTT, MSS), 1.0);
    }

    #[test]
    fn loss_clamped_to_unit_interval() {
        let l = loss_rate(1e9, 1.0, 10_000, RTT, MSS);
        assert!((0.0..=1.0).contains(&l));
    }

    #[test]
    fn floor_applies_at_idle() {
        let l = loss_rate(0.0, 100.0, 0, RTT, MSS);
        assert!(l > 0.0 && l < 1e-5);
    }

    #[test]
    fn zero_connections_saturated_is_floor_only() {
        // Background demand with no TCP connections modelled: no equilibrium
        // term is applicable.
        let l = loss_rate(200.0, 100.0, 0, RTT, MSS);
        assert!(l < 1e-5, "got {l}");
    }
}
