//! Baseline transfer tuners the paper compares Falcon against (§4.3).
//!
//! - [`globus`] — the Globus heuristic [paper refs 3, 9]: a *fixed* setting
//!   chosen once from dataset statistics, never adapted. Conservative by
//!   design (a hosted service cannot risk overwhelming arbitrary endpoints),
//!   which is why it underperforms badly in fast networks (Figure 14).
//! - [`harp`] — HARP [paper refs 10, 11]: throughput regression over
//!   *historical transfer logs* refined with a short real-time probing
//!   phase, then a throughput-maximizing setting chosen **once**. Two
//!   failure modes follow, both reproduced here: trained on logs from
//!   slower networks it under-provisions fast paths (Figure 2a), and
//!   because it optimizes throughput only — no regret terms — a transfer
//!   that joins later probes the *congested* state and picks a setting that
//!   grabs more than its fair share from incumbents that tuned while alone
//!   (Figure 2b).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod globus;
pub mod harp;

pub use globus::GlobusTuner;
pub use harp::{HarpHistory, HarpTuner};
