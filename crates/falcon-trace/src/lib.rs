//! Structured tracing and metrics for the Falcon reproduction.
//!
//! Every layer of the stack answers "what did the tuner see, and why did
//! it move?" through this crate: optimizers emit [`TraceEvent::Decision`]
//! with the utility terms that drove them, the runner emits probe /
//! settings-change / recovery events, the simulator emits environment
//! events plus cheap counters and histograms, and the loopback engine
//! emits connection-lifecycle events. A [`TraceLog`] serializes to JSONL
//! with **byte-stable** output under a fixed seed, which makes committed
//! golden traces a regression oracle for tuner behaviour
//! (`tests/golden_trace.rs`).
//!
//! Design constraints, in order:
//!
//! - **Zero cost when disabled.** [`Tracer::default`] carries no sink;
//!   [`Tracer::emit`] takes a closure so a disabled tracer never
//!   constructs the event (no allocation, one branch). The
//!   `trace` group in `falcon-bench` pins this.
//! - **Deterministic.** Timestamps are *simulated* seconds pushed in by
//!   the owning layer via [`Tracer::set_time`] (monotonically clamped) —
//!   never wall clock. No `HashMap` iteration anywhere; counter and
//!   histogram order is insertion order, which is itself deterministic.
//! - **Dependency-free and panic-free.** The JSONL writer is hand-rolled
//!   and nothing in the workspace reads a trace back; every fallible path
//!   returns `Result`/`Option`.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

mod export;
mod histogram;
mod json;
mod query;

pub use histogram::Histogram;
pub use query::{ConvergenceDetector, TraceQuery};

use std::sync::{Arc, Mutex};

/// One candidate a decision weighed, with the utility (or posterior
/// utility estimate) the optimizer assigned to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Candidate concurrency.
    pub concurrency: u32,
    /// Candidate parallelism (1 for single-parameter searches).
    pub parallelism: u32,
    /// Utility the optimizer attributed to this candidate.
    pub utility: f64,
}

/// Typed trace event. The taxonomy is fixed; free-form payloads are
/// limited to short `action`/term labels so traces stay queryable.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// An accepted measurement sample, as fed to a tuner.
    Probe {
        /// Aggregate throughput over the probe interval (Mbps).
        throughput_mbps: f64,
        /// Packet-loss rate observed over the interval.
        loss_rate: f64,
        /// Concurrency the sample was measured under.
        concurrency: u32,
        /// Parallelism the sample was measured under.
        parallelism: u32,
        /// Pipelining the sample was measured under.
        pipelining: u32,
    },
    /// An optimizer decision, with the terms that drove it.
    Decision {
        /// `OnlineOptimizer::name()` of the deciding optimizer.
        optimizer: String,
        /// Chosen concurrency for the next probe.
        concurrency: u32,
        /// Chosen parallelism.
        parallelism: u32,
        /// Chosen pipelining.
        pipelining: u32,
        /// Named scalar terms behind the decision (slope, θ, direction…).
        terms: Vec<(String, f64)>,
        /// Candidates weighed, with their utility estimates.
        candidates: Vec<Candidate>,
    },
    /// Applied transfer settings changed.
    SettingsChange {
        /// New concurrency.
        concurrency: u32,
        /// New parallelism.
        parallelism: u32,
        /// New pipelining.
        pipelining: u32,
    },
    /// A watchdog / recovery action (detach, restart attempt, restart,
    /// stalled-probe discard).
    Recovery {
        /// Short action label, e.g. `"detached"`, `"restart_attempt"`.
        action: String,
        /// Action-specific scalar (backoff seconds, 0 when unused).
        value: f64,
    },
    /// A scripted environment event applied inside the simulation.
    Environment {
        /// Short action label, e.g. `"link_capacity_factor"`.
        action: String,
        /// Action-specific scalar (factor, rate, rtt, agent id…).
        value: f64,
    },
    /// The agent's decisions have settled (or re-settled after a fault).
    Convergence {
        /// Concurrency the decisions settled at.
        concurrency: u32,
        /// Decisions observed since tracking (re)started.
        probes: u64,
    },
    /// Connection-pool lifecycle in the live-socket engine.
    Connection {
        /// Short action label, e.g. `"workers_resized"`, `"shutdown"`.
        action: String,
        /// Action-specific scalar (worker count, stream count…).
        value: f64,
    },
}

/// Discriminant of a [`TraceEvent`], for filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// [`TraceEvent::Probe`].
    Probe,
    /// [`TraceEvent::Decision`].
    Decision,
    /// [`TraceEvent::SettingsChange`].
    SettingsChange,
    /// [`TraceEvent::Recovery`].
    Recovery,
    /// [`TraceEvent::Environment`].
    Environment,
    /// [`TraceEvent::Convergence`].
    Convergence,
    /// [`TraceEvent::Connection`].
    Connection,
}

impl EventKind {
    /// Stable wire name of the kind (the JSONL `"kind"` field).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Probe => "probe",
            EventKind::Decision => "decision",
            EventKind::SettingsChange => "settings",
            EventKind::Recovery => "recovery",
            EventKind::Environment => "environment",
            EventKind::Convergence => "convergence",
            EventKind::Connection => "connection",
        }
    }
}

impl TraceEvent {
    /// The event's kind discriminant.
    #[must_use]
    pub fn kind(&self) -> EventKind {
        match self {
            TraceEvent::Probe { .. } => EventKind::Probe,
            TraceEvent::Decision { .. } => EventKind::Decision,
            TraceEvent::SettingsChange { .. } => EventKind::SettingsChange,
            TraceEvent::Recovery { .. } => EventKind::Recovery,
            TraceEvent::Environment { .. } => EventKind::Environment,
            TraceEvent::Convergence { .. } => EventKind::Convergence,
            TraceEvent::Connection { .. } => EventKind::Connection,
        }
    }
}

/// A timestamped, agent-attributed trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Simulated seconds at emission (monotonic within a log).
    pub t_s: f64,
    /// Owning agent span, if the emitter was agent-scoped.
    pub agent: Option<u32>,
    /// The event payload.
    pub event: TraceEvent,
}

/// Collected output of a traced run: the event stream plus counters and
/// histograms, all in deterministic (insertion) order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceLog {
    /// Events in emission order.
    pub records: Vec<TraceRecord>,
    /// Named monotonic counters.
    pub counters: Vec<(String, u64)>,
    /// Named fixed-bucket histograms.
    pub histograms: Vec<(String, Histogram)>,
}

impl TraceLog {
    /// Look up a counter by name (linear scan — the counter set is
    /// small and insertion-ordered).
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }
}

/// Shared collection state behind an enabled [`Tracer`].
#[derive(Debug, Default)]
struct Sink {
    now_s: f64,
    events: Vec<TraceRecord>,
    counters: Vec<(&'static str, u64)>,
    histograms: Vec<(&'static str, Histogram)>,
}

/// Cheap-to-clone handle for emitting trace events.
///
/// The default tracer is **disabled**: it has no sink, and every method
/// is a branch on `None`. [`Tracer::recording`] creates an enabled tracer
/// whose clones (including agent-scoped clones from [`Tracer::for_agent`])
/// all feed one shared log, drained with [`Tracer::take_log`].
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<Mutex<Sink>>>,
    agent: Option<u32>,
}

impl Tracer {
    /// A disabled tracer (same as `Tracer::default()`): all emissions are
    /// no-ops and cost one branch.
    #[must_use]
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// An enabled tracer with a fresh, empty log.
    #[must_use]
    pub fn recording() -> Tracer {
        Tracer {
            sink: Some(Arc::new(Mutex::new(Sink::default()))),
            agent: None,
        }
    }

    /// Whether emissions are recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// A clone of this tracer whose emissions are attributed to `agent`.
    #[must_use]
    pub fn for_agent(&self, agent: u32) -> Tracer {
        Tracer {
            sink: self.sink.clone(),
            agent: Some(agent),
        }
    }

    /// Advance the shared simulation clock. Clamped monotonic: time never
    /// moves backwards even if layers report slightly stale clocks.
    pub fn set_time(&self, t_s: f64) {
        let Some(sink) = &self.sink else { return };
        if let Ok(mut s) = sink.lock() {
            if t_s > s.now_s {
                s.now_s = t_s;
            }
        }
    }

    /// Record an event at the current simulated time. The closure runs
    /// only when the tracer is enabled, so a disabled tracer never
    /// constructs (or allocates for) the event.
    pub fn emit(&self, build: impl FnOnce() -> TraceEvent) {
        let Some(sink) = &self.sink else { return };
        if let Ok(mut s) = sink.lock() {
            let t_s = s.now_s;
            let agent = self.agent;
            s.events.push(TraceRecord {
                t_s,
                agent,
                event: build(),
            });
        }
    }

    /// Add `n` to the named counter (created at zero on first use).
    pub fn add(&self, name: &'static str, n: u64) {
        let Some(sink) = &self.sink else { return };
        if let Ok(mut s) = sink.lock() {
            if let Some(entry) = s.counters.iter_mut().find(|(k, _)| *k == name) {
                entry.1 += n;
            } else {
                s.counters.push((name, n));
            }
        }
    }

    /// Record `value` into the named log-bucketed histogram (created
    /// empty on first use).
    pub fn observe(&self, name: &'static str, value: f64) {
        let Some(sink) = &self.sink else { return };
        if let Ok(mut s) = sink.lock() {
            if let Some(entry) = s.histograms.iter_mut().find(|(k, _)| *k == name) {
                entry.1.record(value);
            } else {
                let mut h = Histogram::default();
                h.record(value);
                s.histograms.push((name, h));
            }
        }
    }

    /// Drain everything recorded so far into a [`TraceLog`], resetting
    /// the shared sink (the clock is preserved). Returns an empty log for
    /// a disabled tracer.
    #[must_use]
    pub fn take_log(&self) -> TraceLog {
        let Some(sink) = &self.sink else {
            return TraceLog::default();
        };
        match sink.lock() {
            Ok(mut s) => TraceLog {
                records: std::mem::take(&mut s.events),
                counters: s
                    .counters
                    .drain(..)
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
                histograms: s
                    .histograms
                    .drain(..)
                    .map(|(k, h)| (k.to_string(), h))
                    .collect(),
            },
            Err(_) => TraceLog::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_and_never_runs_the_closure() {
        let t = Tracer::default();
        assert!(!t.is_enabled());
        let mut ran = false;
        t.emit(|| {
            ran = true;
            TraceEvent::Convergence {
                concurrency: 1,
                probes: 1,
            }
        });
        assert!(!ran, "closure must not run when disabled");
        t.add("x", 1);
        t.observe("h", 1.0);
        assert_eq!(t.take_log(), TraceLog::default());
    }

    #[test]
    fn agent_spans_and_monotonic_time() {
        let t = Tracer::recording();
        t.set_time(5.0);
        let a0 = t.for_agent(0);
        let a1 = t.for_agent(1);
        a0.emit(|| TraceEvent::Convergence {
            concurrency: 8,
            probes: 3,
        });
        t.set_time(3.0); // stale clock: must not rewind
        a1.emit(|| TraceEvent::Recovery {
            action: "detached".to_string(),
            value: 0.0,
        });
        t.set_time(9.5);
        t.emit(|| TraceEvent::Environment {
            action: "loss_floor".to_string(),
            value: 0.01,
        });
        let log = t.take_log();
        assert_eq!(log.records.len(), 3);
        assert_eq!(log.records[0].agent, Some(0));
        assert_eq!(log.records[1].agent, Some(1));
        assert_eq!(log.records[2].agent, None);
        assert_eq!(log.records[0].t_s, 5.0);
        assert_eq!(log.records[1].t_s, 5.0, "clock must be monotonic");
        assert_eq!(log.records[2].t_s, 9.5);
    }

    #[test]
    fn counters_accumulate_in_insertion_order() {
        let t = Tracer::recording();
        t.add("b", 1);
        t.add("a", 3);
        t.add("b", 1);
        let log = t.take_log();
        assert_eq!(
            log.counters,
            vec![("b".to_string(), 2), ("a".to_string(), 3)]
        );
    }

    #[test]
    fn histograms_record_through_the_handle() {
        let t = Tracer::recording();
        t.observe("loss", 0.004);
        t.observe("loss", 0.5);
        let log = t.take_log();
        assert_eq!(log.histograms.len(), 1);
        assert_eq!(log.histograms[0].1.total(), 2);
    }

    #[test]
    fn take_log_drains_but_keeps_the_clock() {
        let t = Tracer::recording();
        t.set_time(7.0);
        t.emit(|| TraceEvent::Convergence {
            concurrency: 2,
            probes: 2,
        });
        let first = t.take_log();
        assert_eq!(first.records.len(), 1);
        t.emit(|| TraceEvent::Convergence {
            concurrency: 3,
            probes: 3,
        });
        let second = t.take_log();
        assert_eq!(second.records.len(), 1);
        assert_eq!(second.records[0].t_s, 7.0);
    }
}
