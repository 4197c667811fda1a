//! Umbrella crate for the Falcon reproduction suite.
//!
//! Re-exports the public API of every workspace crate so examples and
//! integration tests can use a single dependency.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub use falcon_baselines as baselines;
pub use falcon_core as core;
pub use falcon_fleet as fleet;
pub use falcon_gp as gp;
pub use falcon_net as net;
pub use falcon_rl as rl;
pub use falcon_sim as sim;
pub use falcon_tcp as tcp;
pub use falcon_trace as trace;
pub use falcon_transfer as transfer;
