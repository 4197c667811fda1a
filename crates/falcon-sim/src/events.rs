//! Scripted environment dynamics.
//!
//! A transfer that lives for minutes sees the network change underneath it:
//! links get re-provisioned or flap, storage arrays degrade, routes shift to
//! longer paths, and whole transfer agents die and come back. The paper's
//! core argument for *online* optimization (§1, §4.5) is exactly that a
//! one-shot tuner cannot follow such changes, so the simulator supports a
//! schedule of [`EnvironmentEvent`]s that perturb the environment mid-run.
//!
//! Events always scale the environment as it was **at construction** (the
//! baseline), not the current value: `LinkCapacityFactor { factor: 1.0 }`
//! restores the original capacity exactly, no matter how many drops happened
//! before. Kill/revive events act on agent indices in join order.

/// One scheduled change to the simulated world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvironmentEvent {
    /// When the event fires (simulated seconds).
    pub at_s: f64,
    /// What it does.
    pub action: EventAction,
}

impl EnvironmentEvent {
    /// Convenience constructor.
    pub fn at(at_s: f64, action: EventAction) -> Self {
        EnvironmentEvent { at_s, action }
    }
}

/// What an [`EnvironmentEvent`] does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventAction {
    /// Scale a resource's baseline capacity (and its per-stream cap, if any)
    /// by `factor`. `resource: None` targets the bottleneck link. A factor
    /// of 1.0 restores the baseline; 0.3 models a link dropping to 30% of
    /// its provisioned rate (congestion elsewhere, partial LAG failure).
    LinkCapacityFactor {
        /// Index into `Environment::resources`, or `None` for the
        /// bottleneck link.
        resource: Option<usize>,
        /// Multiplier applied to the baseline capacity.
        factor: f64,
    },
    /// Impose a floor on the end-to-end packet-loss rate, on top of
    /// whatever the congestion model produces (dirty fiber, a flapping
    /// interface). `rate: 0.0` clears the floor.
    LossFloor {
        /// Minimum packet-loss rate in `[0, 1)`.
        rate: f64,
    },
    /// Scale every disk resource's baseline per-process throttle by
    /// `factor` (storage-array degradation: a rebuild, a hot spare being
    /// resilvered). 1.0 restores the baseline.
    DiskThrottleFactor {
        /// Multiplier applied to baseline per-stream caps of disk
        /// resources.
        factor: f64,
    },
    /// Set the round-trip time to `rtt_s` (route change). The baseline RTT
    /// can be restored by scheduling another shift back to it.
    RttShift {
        /// New round-trip time in seconds.
        rtt_s: f64,
    },
    /// Kill an agent (by join order): the transfer process crashes. The
    /// agent stops moving bytes until revived; its registered settings are
    /// kept so a revive restores its connection pool (through the usual
    /// connection-establishment ramp).
    KillAgent {
        /// Agent index in join order.
        agent: usize,
    },
    /// Revive a previously killed agent. Connections restart from zero
    /// rate, exactly like a fresh process re-opening its sockets.
    ReviveAgent {
        /// Agent index in join order.
        agent: usize,
    },
}

/// Why an [`EnvironmentEvent`] could not be scheduled: its time is not
/// finite, or it lies before an event that has already fired (the past
/// cannot be rewritten). Returned by `Simulation::try_add_events`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventScheduleError {
    /// Position the event would occupy in the schedule (events added so
    /// far, fired or pending).
    pub index: usize,
    /// The rejected event's time.
    pub at_s: f64,
    /// The rejected event's action.
    pub action: EventAction,
    /// Time of the latest event that has already fired, if any.
    pub last_fired_at_s: Option<f64>,
}

impl std::fmt::Display for EventScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.at_s.is_finite() {
            write!(
                f,
                "cannot schedule event #{} ({:?}) at non-finite time {}s",
                self.index, self.action, self.at_s
            )
        } else {
            write!(
                f,
                "cannot schedule event #{} ({:?}) at {}s: events up to {}s already fired",
                self.index,
                self.action,
                self.at_s,
                self.last_fired_at_s.unwrap_or(f64::NEG_INFINITY)
            )
        }
    }
}

impl std::error::Error for EventScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_orders_fields() {
        let e = EnvironmentEvent::at(12.5, EventAction::LossFloor { rate: 0.01 });
        assert_eq!(e.at_s, 12.5);
        assert_eq!(e.action, EventAction::LossFloor { rate: 0.01 });
    }

    #[test]
    fn schedule_error_reports_action_and_index() {
        let err = EventScheduleError {
            index: 3,
            at_s: 10.0,
            action: EventAction::KillAgent { agent: 1 },
            last_fired_at_s: Some(25.0),
        };
        let msg = err.to_string();
        assert!(msg.contains("#3"), "{msg}");
        assert!(msg.contains("KillAgent"), "{msg}");
        assert!(msg.contains("25"), "{msg}");

        let nan = EventScheduleError {
            index: 0,
            at_s: f64::NAN,
            action: EventAction::LossFloor { rate: 0.5 },
            last_fired_at_s: None,
        };
        assert!(nan.to_string().contains("non-finite"), "{nan}");
    }
}
