//! Command-line front end for the Falcon reproduction.
//!
//! Two subcommands:
//!
//! - `falcon simulate` — run a Falcon-tuned transfer against a simulated
//!   testbed preset and print the probe-by-probe trace;
//! - `falcon loopback` — run a Falcon-tuned transfer over **live TCP
//!   loopback sockets** with a token-bucket per-worker throttle;
//! - `falcon scenario <file>` — run a declarative multi-agent experiment
//!   from an INI-style scenario file ([`scenario`]);
//! - `falcon envs` — list the simulated testbed presets.
//!
//! Argument parsing is hand-rolled (`--key value` pairs) to stay within
//! the offline dependency set; [`args`] holds the parser, [`run`] the
//! command implementations.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod args;
pub mod run;
pub mod scenario;

pub use args::{Command, LoopbackArgs, ParseError, SimulateArgs};
