//! Hill Climbing search (§3.2).
//!
//! Starts at the minimum concurrency and moves in unit steps as long as the
//! utility keeps improving; when the utility falls more than a threshold
//! (3% by default) below the best value seen in the current run, the
//! direction reverses. Tolerating small draw-downs (rather than requiring
//! every step to improve by the threshold) is what lets the search cross the
//! nearly-flat utility plateau around the optimum of Eq 4, where marginal
//! gains are well under 1% per step; the reversal threshold then provides
//! the noise robustness the paper attributes to the 3% default. Even at the
//! optimum the search keeps moving, so it periodically re-evaluates higher
//! and lower values and can track a changing environment.
//!
//! The fixed ±1 step is exactly why the paper measures Hill Climbing ~7×
//! slower to converge than Gradient Descent or Bayesian Optimization
//! (Figure 7) and too slow to reach fairness under competition (Figure 8).

use falcon_trace::{Candidate, TraceEvent, Tracer};

use crate::optimizer::{Observation, OnlineOptimizer};
use crate::settings::{SearchBounds, TransferSettings};

/// Relative draw-down from the best utility of the current run that
/// triggers a direction reversal (paper default 3%).
const THRESHOLD: f64 = 0.03;

/// Starting concurrency.
const START: u32 = 1;

/// Hill Climbing optimizer state.
#[derive(Debug, Clone)]
pub struct HillClimbingOptimizer {
    /// Inclusive concurrency range.
    bounds: (u32, u32),
    direction: i64,
    /// Best utility observed since the last reversal.
    best_in_run: Option<f64>,
    current: u32,
    tracer: Tracer,
}

impl HillClimbingOptimizer {
    /// New concurrency-only search in `[1, max_concurrency]`.
    pub fn new(max_concurrency: u32) -> Self {
        HillClimbingOptimizer {
            bounds: SearchBounds::concurrency_only(max_concurrency).concurrency,
            direction: 1,
            best_in_run: None,
            current: START,
            tracer: Tracer::default(),
        }
    }

    /// Current concurrency position of the search.
    pub fn position(&self) -> u32 {
        self.current
    }

    fn step(&self, from: u32, dir: i64) -> u32 {
        let (lo, hi) = self.bounds;
        let next = from as i64 + dir;
        next.clamp(i64::from(lo), i64::from(hi)) as u32
    }
}

impl OnlineOptimizer for HillClimbingOptimizer {
    fn name(&self) -> &'static str {
        "hill-climbing"
    }

    fn initial(&self) -> TransferSettings {
        TransferSettings::with_concurrency(START)
    }

    fn next(&mut self, obs: &Observation) -> TransferSettings {
        let u = obs.utility;
        match self.best_in_run {
            None => {
                self.best_in_run = Some(u);
            }
            Some(best) => {
                if u > best {
                    self.best_in_run = Some(u);
                } else {
                    // γ: relative draw-down from the best of this run.
                    let gamma = (best - u) / best.abs().max(1e-9);
                    if gamma > THRESHOLD {
                        self.direction = -self.direction;
                        // The reversal starts a fresh run from here.
                        self.best_in_run = Some(u);
                    }
                }
            }
        }
        let next = self.step(self.current, self.direction);
        if next == self.current {
            // Pinned at a bound: bounce back and restart the run.
            self.direction = -self.direction;
            self.best_in_run = Some(u);
            self.current = self.step(self.current, self.direction);
        } else {
            self.current = next;
        }
        self.tracer.emit(|| TraceEvent::Decision {
            optimizer: "hill-climbing".to_string(),
            concurrency: self.current,
            parallelism: 1,
            pipelining: 1,
            terms: vec![
                ("direction".to_string(), self.direction as f64),
                ("best_in_run".to_string(), self.best_in_run.unwrap_or(u)),
            ],
            candidates: vec![Candidate {
                concurrency: obs.settings.concurrency,
                parallelism: obs.settings.parallelism,
                utility: u,
            }],
        });
        TransferSettings::with_concurrency(self.current)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// All state is inline.
    fn memory_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{drive, emulab48};

    #[test]
    fn climbs_monotonically_from_start() {
        let mut opt = HillClimbingOptimizer::new(64);
        let trace = drive(&mut opt, emulab48, 10);
        assert_eq!(trace, vec![2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn takes_about_optimal_many_steps_to_converge() {
        // The Figure 7 mechanism: unit steps mean ~48 probes to reach 48.
        let mut opt = HillClimbingOptimizer::new(64);
        let trace = drive(&mut opt, emulab48, 60);
        let first_hit = trace
            .iter()
            .position(|&c| c >= 48)
            .expect("never reached 48");
        assert!(
            (44..=50).contains(&first_hit),
            "reached 48 after {first_hit} probes"
        );
    }

    #[test]
    fn oscillates_around_optimum_after_convergence() {
        let mut opt = HillClimbingOptimizer::new(64);
        let trace = drive(&mut opt, emulab48, 160);
        let tail = &trace[60..];
        assert!(
            tail.iter().all(|&c| (30..=56).contains(&c)),
            "tail strayed: {tail:?}"
        );
        // It keeps exploring: the tail is not constant.
        assert!(tail.iter().any(|&c| c != tail[0]));
        // And it repeatedly revisits the optimal region.
        let hits = tail.iter().filter(|&&c| (44..=52).contains(&c)).count();
        assert!(hits >= 10, "only {hits} hits near the optimum");
    }

    #[test]
    fn respects_upper_bound() {
        let mut opt = HillClimbingOptimizer::new(8);
        let trace = drive(&mut opt, |n| f64::from(n) * 10.0, 30);
        assert!(trace.iter().all(|&c| (1..=8).contains(&c)));
        assert!(trace.contains(&8));
    }

    #[test]
    fn respects_lower_bound_on_descending_landscape() {
        // Utility strictly decreasing in n: the search must hug the minimum.
        let mut opt = HillClimbingOptimizer::new(32);
        let trace = drive(&mut opt, |n| 100.0 / f64::from(n), 40);
        assert!(trace.iter().all(|&c| c >= 1));
        assert!(
            trace.iter().filter(|&&c| c <= 4).count() > 25,
            "trace: {trace:?}"
        );
    }

    #[test]
    fn adapts_when_optimum_moves() {
        // Converge toward 48, then shift the optimum down to 10 — the
        // utility at 48 collapses, so the search must walk back down.
        let mut opt = HillClimbingOptimizer::new(64);
        drive(&mut opt, emulab48, 55);
        let trace = drive(&mut opt, |n| f64::from(n.min(10)) * 100.0, 80);
        let tail = &trace[60..];
        assert!(
            tail.iter().all(|&c| c <= 20),
            "did not adapt downward: {tail:?}"
        );
    }

    #[test]
    fn tolerates_small_drawdowns_without_reversing() {
        // A 1% dip must not reverse a 3%-threshold climb.
        let mut opt = HillClimbingOptimizer::new(64);
        // Utility via throughput where aggregate dips 1% at n=5.
        let f = |n: u32| {
            let base = f64::from(n) * 50.0;
            if n == 5 {
                base * 0.99
            } else {
                base
            }
        };
        let trace = drive(&mut opt, f, 12);
        // Climb continues past the dip.
        assert!(trace.iter().any(|&c| c >= 10), "trace: {trace:?}");
    }
}
