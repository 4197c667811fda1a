//! Steady-state TCP throughput response models and a bottleneck loss model.
//!
//! Falcon (SC '21) is a black-box optimizer: it only observes per-interval
//! throughput and packet-loss rate. To reproduce its behaviour without the
//! paper's physical testbeds, we model the two mechanisms that shape those
//! observables:
//!
//! 1. **Congestion-control response functions** — how much throughput a single
//!    TCP connection can sustain for a given (loss rate, RTT, MSS). These cap
//!    per-connection rates in the fluid simulator and create the throughput
//!    collapse at excessive concurrency that Figure 4 / Section 2 describe.
//! 2. **A bottleneck loss model** — how packet-loss rate grows with offered
//!    load and the number of competing connections at a saturated link
//!    (calibrated to the shape of Figure 4: <2% below the saturation point,
//!    rising to ~10% at 3.2x over-subscription).
//!
//! Implemented response functions: Mathis (Reno-family square-root law),
//! Padhye (with retransmission timeouts), CUBIC (RFC 8312), HighSpeed TCP
//! (RFC 3649), and a BBR model (BDP-limited, loss-agnostic up to a threshold).
//! All are steady-state *fluid* models; transient convergence (slow start,
//! AIMD ramp) is approximated by [`ramp::RateRamp`].

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

pub mod cca;
pub mod loss;
pub mod ramp;
pub mod response;

pub use cca::CongestionControl;
pub use loss::loss_rate;
pub use ramp::{DecayMemo, RateRamp};
pub use response::{
    bbr_rate_mbps, cubic_rate_mbps, hstcp_rate_mbps, mathis_rate_mbps, padhye_rate_mbps,
};

/// Default maximum segment size in bytes (standard Ethernet MTU minus headers).
pub const DEFAULT_MSS_BYTES: f64 = 1460.0;

/// Convert a window expressed in segments to a rate in megabits per second.
#[inline]
pub fn window_to_mbps(window_segments: f64, mss_bytes: f64, rtt_s: f64) -> f64 {
    debug_assert!(rtt_s > 0.0);
    window_segments * mss_bytes * 8.0 / rtt_s / 1e6
}
