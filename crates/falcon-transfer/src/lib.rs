//! Application-layer transfer engine abstraction for the Falcon reproduction.
//!
//! This crate supplies everything between the optimizer ([`falcon_core`])
//! and the substrate that actually moves bytes ([`falcon_sim`], or the real
//! loopback engine in `falcon-net`):
//!
//! - [`dataset`] — run-length file-set models and generators for the
//!   paper's workloads (1000×1 GB; *small* 1 KiB–10 MiB / 120 GiB; *large*
//!   100 MiB–10 GiB / 1 TiB; *mixed*).
//! - [`pipelining`] — the startup-gap model: how much wall time each file
//!   thread wastes between files, and how command pipelining hides it
//!   (§4.4: pipelining matters for lots-of-small-files transfers).
//! - [`job`] — byte accounting for a transfer task.
//! - [`harness`] — the [`harness::TransferHarness`] trait and the
//!   simulator-backed implementation.
//! - [`runner`] — the experiment engine: schedules competing transfer
//!   tasks (Falcon agents or baseline tuners) against one harness and
//!   records time-series traces; includes Jain's fairness index.
//! - [`scheduler`] — file-to-thread dispatch policies (FIFO,
//!   largest-first, smallest-first) and a makespan evaluator for the
//!   straggler analysis on heterogeneous datasets.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod dataset;
pub mod harness;
pub mod job;
pub mod pipelining;
pub mod runner;
pub mod scheduler;

pub use dataset::{Dataset, FileSpec};
pub use harness::{SimHarness, TransferHarness};
pub use job::TransferJob;
pub use runner::{jain_index, AgentPlan, RunTrace, Runner, TracePoint, Tuner};
