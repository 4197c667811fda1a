//! Real TCP loopback transfer engine.
//!
//! Everything else in this reproduction exercises Falcon against the fluid
//! simulator; this crate proves the optimizer against *live* sockets and
//! threads. A [`receiver::Receiver`] accepts and drains connections on
//! 127.0.0.1; a [`sender::LoopbackTransfer`] runs a dynamic pool of file
//! worker threads, each throttled by a token bucket that plays the role of
//! the per-process I/O limit of a parallel file system (paper §2: single
//! reader processes cannot saturate the storage, so concurrency is
//! required). Falcon tunes the worker count online exactly as it tunes
//! concurrency in the simulator.
//!
//! Loopback paths drop no packets, so the loss term of Eq 4 reads zero and
//! the nonlinear concurrency regret alone must stop the search — the
//! sender-limited regime the paper calls out in §3.1.
//!
//! [`harness::NetHarness`] adapts the engine to
//! [`falcon_transfer::TransferHarness`], where `advance()` sleeps real wall
//! time, so the same [`falcon_transfer::Runner`] drives simulated and real
//! experiments, with its warm-up discard, stalled-probe discard and restart
//! watchdog: once every worker of a transfer has died the watchdog's
//! restart calls [`sender::LoopbackTransfer::respawn_dead_workers`].
//! `falcon loopback`, the `real_loopback` example and the real-socket tests
//! all run that way; the engine's types stay public for callers that
//! measure it directly.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod harness;
pub mod receiver;
pub mod sender;
pub mod sync;
pub mod throttle;

pub use harness::NetHarness;
pub use receiver::Receiver;
pub use sender::{LoopbackConfig, LoopbackTransfer, RecoveryStats};
pub use throttle::TokenBucket;
