//! Fluid-flow simulator of end-to-end file-transfer paths.
//!
//! This crate substitutes for the paper's physical testbeds (Table 1: Emulab,
//! XSEDE, HPCLab, Campus Cluster, plus Stampede2–Comet). It simulates the
//! resources an application-layer transfer crosses, advancing from one
//! state-change time to the next (see [`des`]); the original fixed-tick
//! stepper survives only as a differential-testing [`oracle`]:
//!
//! ```text
//! source disk read ──> source NIC ──> shared network link ──> dest NIC ──> dest disk write
//!  (per-process cap)                  (loss model lives here)              (per-process cap)
//! ```
//!
//! Key behaviours reproduced:
//!
//! - **Per-process I/O throttling**: parallel file systems deliver far more
//!   aggregate bandwidth than any single reader/writer process can pull, so
//!   concurrency is required to saturate them (paper §2, Figure 1).
//! - **Per-connection fair sharing** at every saturated resource (progressive
//!   filling / weighted max-min): TCP flows with the same RTT share fairly
//!   (paper footnote 1), which is what makes an agent's throughput
//!   proportional to its connection count and creates the congestion game.
//! - **Loss growth with over-subscription** ([`falcon_tcp::loss_rate`],
//!   Figure 4) and the congestion-control response cap that turns heavy loss
//!   into throughput collapse.
//! - **Convergence transients** ([`falcon_tcp::RateRamp`]) and multiplicative
//!   **measurement noise**, the reasons sample transfers need 3–5 seconds.
//!
//! The simulator is deterministic given a seed.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

pub mod alloc;
pub mod des;
pub mod env;
pub mod events;
pub mod resource;
pub mod sim;
pub mod traffic;

pub use des::{EventQueue, KeyedEventQueue};
pub use env::{Environment, EnvironmentKind};
pub use events::{EnvironmentEvent, EventAction, EventScheduleError};
pub use resource::{Resource, ResourceKind};
pub use sim::{oracle, AgentHandle, AgentSample, AgentSettings, BackgroundFlow, Simulation};
