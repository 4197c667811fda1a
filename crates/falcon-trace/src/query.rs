//! Query helpers over a [`TraceLog`]: chained filters (agent, kind, time
//! window) and the reductions tests lean on (decision counts, convergence
//! times, mean probe throughput), plus the streaming convergence detector
//! the runner uses to emit [`TraceEvent::Convergence`] markers.

use crate::{EventKind, TraceEvent, TraceLog, TraceRecord};

/// Borrowed, chainable view over trace records.
///
/// Filters consume and return the query, so they compose:
/// `TraceQuery::new(&log).agent(0).kind(EventKind::Decision).window(0.0, 300.0)`.
/// Time windows are half-open `[t0, t1)`, which makes adjacent windows
/// partition a record stream exactly (no loss, no duplication).
#[derive(Debug, Clone)]
pub struct TraceQuery<'a> {
    records: Vec<&'a TraceRecord>,
}

impl<'a> TraceQuery<'a> {
    /// Query over every record in the log.
    #[must_use]
    pub fn new(log: &'a TraceLog) -> TraceQuery<'a> {
        TraceQuery {
            records: log.records.iter().collect(),
        }
    }

    /// Query over a raw record slice.
    #[must_use]
    pub fn from_records(records: &'a [TraceRecord]) -> TraceQuery<'a> {
        TraceQuery {
            records: records.iter().collect(),
        }
    }

    /// Keep only records attributed to `agent`.
    #[must_use]
    pub fn agent(mut self, agent: u32) -> TraceQuery<'a> {
        self.records.retain(|r| r.agent == Some(agent));
        self
    }

    /// Keep only records of the given kind.
    #[must_use]
    pub fn kind(mut self, kind: EventKind) -> TraceQuery<'a> {
        self.records.retain(|r| r.event.kind() == kind);
        self
    }

    /// Keep only records with `t0 <= t_s < t1` (half-open).
    #[must_use]
    pub fn window(mut self, t0: f64, t1: f64) -> TraceQuery<'a> {
        self.records.retain(|r| r.t_s >= t0 && r.t_s < t1);
        self
    }

    /// The surviving records, in log order.
    #[must_use]
    pub fn records(&self) -> &[&'a TraceRecord] {
        &self.records
    }

    /// Number of surviving records.
    #[must_use]
    pub fn count(&self) -> usize {
        self.records.len()
    }

    /// Whether any record survived the filters.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of surviving [`TraceEvent::Decision`] records.
    #[must_use]
    pub fn decision_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.event.kind() == EventKind::Decision)
            .count()
    }

    /// Timestamp of the first surviving [`TraceEvent::Convergence`]
    /// marker, if any.
    #[must_use]
    pub fn convergence_time(&self) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.event.kind() == EventKind::Convergence)
            .map(|r| r.t_s)
    }

    /// Timestamp of the first convergence marker at or after `t` — the
    /// "re-converged by" reduction for fault-injection tests.
    #[must_use]
    pub fn convergence_after(&self, t: f64) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.event.kind() == EventKind::Convergence && r.t_s >= t)
            .map(|r| r.t_s)
    }

    /// Mean throughput across surviving [`TraceEvent::Probe`] records.
    #[must_use]
    pub fn mean_probe_mbps(&self) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for r in &self.records {
            if let TraceEvent::Probe {
                throughput_mbps, ..
            } = r.event
            {
                sum += throughput_mbps;
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }
}

/// How many consecutive decisions must agree before declaring
/// convergence.
const STABLE_WINDOW: usize = 5;

/// Streaming convergence detector over an agent's decision stream.
///
/// Declares convergence when the last `STABLE_WINDOW` (5) decisions span at
/// most `max(4, 15% of their mean)` concurrency, then latches (the floor
/// of 4 tolerates the `n−1`/`n+1` probe bounce of a converged
/// gradient-descent search whose center still wobbles by one). A later
/// decision deviating from the latched point by more than
/// `max(3, 30% of it)` re-arms the detector, so a link flap that forces
/// the tuner to a new operating point yields a *second* convergence
/// marker — the re-convergence signal `tests/recovery.rs` asserts on.
#[derive(Debug, Clone, Default)]
pub struct ConvergenceDetector {
    recent: Vec<u32>,
    probes: u64,
    latched: Option<u32>,
}

impl ConvergenceDetector {
    /// Fresh, unlatched detector.
    #[must_use]
    pub fn new() -> ConvergenceDetector {
        ConvergenceDetector::default()
    }

    /// Feed one decision. Returns `Some((concurrency, probes))` at the
    /// moment convergence is (re)declared: the settled concurrency and
    /// the number of decisions observed since tracking (re)started.
    pub fn observe(&mut self, concurrency: u32) -> Option<(u32, u64)> {
        self.probes += 1;
        if let Some(c) = self.latched {
            let dev = f64::from(concurrency.abs_diff(c));
            if dev <= (0.3 * f64::from(c)).max(3.0) {
                return None;
            }
            // Left the settled operating point: re-arm.
            self.latched = None;
            self.recent.clear();
            self.probes = 1;
        }
        self.recent.push(concurrency);
        if self.recent.len() > STABLE_WINDOW {
            self.recent.remove(0);
        }
        if self.recent.len() == STABLE_WINDOW {
            let min = *self.recent.iter().min()?;
            let max = *self.recent.iter().max()?;
            let mean = self.recent.iter().sum::<u32>() / STABLE_WINDOW as u32;
            if f64::from(max - min) <= (0.15 * f64::from(mean)).max(4.0) {
                self.latched = Some(mean);
                return Some((mean, self.probes));
            }
        }
        None
    }

    /// The settled concurrency, if currently converged.
    #[must_use]
    pub fn settled(&self) -> Option<u32> {
        self.latched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEvent;

    fn record(t_s: f64, agent: Option<u32>, event: TraceEvent) -> TraceRecord {
        TraceRecord { t_s, agent, event }
    }

    fn probe(mbps: f64) -> TraceEvent {
        TraceEvent::Probe {
            throughput_mbps: mbps,
            loss_rate: 0.0,
            concurrency: 4,
            parallelism: 1,
            pipelining: 1,
        }
    }

    fn convergence(cc: u32) -> TraceEvent {
        TraceEvent::Convergence {
            concurrency: cc,
            probes: 5,
        }
    }

    fn sample() -> TraceLog {
        TraceLog {
            records: vec![
                record(0.0, Some(0), probe(100.0)),
                record(5.0, Some(1), probe(300.0)),
                record(10.0, Some(0), convergence(8)),
                record(20.0, Some(0), probe(200.0)),
                record(30.0, Some(0), convergence(4)),
            ],
            counters: Vec::new(),
            histograms: Vec::new(),
        }
    }

    #[test]
    fn filters_compose() {
        let log = sample();
        let q = TraceQuery::new(&log).agent(0).kind(EventKind::Probe);
        assert_eq!(q.count(), 2);
        let q = q.window(0.0, 20.0);
        assert_eq!(q.count(), 1);
        assert!(TraceQuery::new(&log).agent(7).is_empty());
    }

    #[test]
    fn windows_are_half_open() {
        let log = sample();
        let left = TraceQuery::new(&log).window(0.0, 10.0).count();
        let right = TraceQuery::new(&log).window(10.0, 31.0).count();
        assert_eq!(left + right, log.records.len());
        // t = 10.0 lands in exactly one side.
        assert_eq!(left, 2);
        assert_eq!(right, 3);
    }

    #[test]
    fn reductions() {
        let log = sample();
        let q = TraceQuery::new(&log).agent(0);
        assert_eq!(q.convergence_time(), Some(10.0));
        assert_eq!(q.convergence_after(15.0), Some(30.0));
        assert_eq!(q.convergence_after(31.0), None);
        assert_eq!(q.mean_probe_mbps(), Some(150.0));
        assert_eq!(
            TraceQuery::new(&log).agent(1).mean_probe_mbps(),
            Some(300.0)
        );
        assert_eq!(q.decision_count(), 0);
    }

    #[test]
    fn detector_latches_after_stable_window() {
        let mut d = ConvergenceDetector::new();
        for cc in [10, 20, 40, 47, 48] {
            assert_eq!(d.observe(cc), None);
        }
        // Window is now [20, 40, 47, 48, 48] — still too wide.
        assert_eq!(d.observe(48), None);
        assert_eq!(d.observe(47), None);
        // Window [47, 48, 48, 48, 47]: span 1 ≤ max(4, 15%·47) → latch.
        let (cc, probes) = d.observe(48).expect("should converge");
        assert!((46..=49).contains(&cc), "settled at {cc}");
        assert_eq!(probes, 8);
        assert_eq!(d.settled(), Some(cc));
        // Small wobble around the latch stays quiet.
        assert_eq!(d.observe(cc + 2), None);
    }

    #[test]
    fn detector_rearms_on_large_deviation_and_reconverges() {
        let mut d = ConvergenceDetector::new();
        for _ in 0..5 {
            d.observe(48);
        }
        assert_eq!(d.settled(), Some(48));
        // Link flap: tuner dives to ~14. Deviation 34 > max(3, 14.4).
        assert_eq!(d.observe(14), None);
        assert_eq!(d.settled(), None, "must re-arm");
        for _ in 0..3 {
            assert_eq!(d.observe(14), None);
        }
        let (cc, probes) = d.observe(14).expect("should re-converge");
        assert_eq!(cc, 14);
        assert_eq!(probes, 5, "probe count restarts at re-arm");
    }
}
