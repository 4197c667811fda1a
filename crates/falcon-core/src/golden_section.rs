//! Golden Section Search over concurrency — the GridFTP-APT approach.
//!
//! Ito, Ohsaki & Imase (paper reference \[24\]) tune the number of parallel
//! TCP connections for GridFTP with Golden Section Search: maintain a
//! bracket `[lo, hi]` believed to contain the optimum of a unimodal
//! function, evaluate the two interior golden-ratio points, and discard
//! the outer segment next to the worse one. Convergence is geometric in
//! bracket width — faster than Hill Climbing for wide spaces — but the
//! method assumes a *static* unimodal objective: once the bracket has
//! collapsed it never re-expands, so (unlike Falcon's searches) it cannot
//! track changing conditions. The paper cites this line of work as
//! real-time optimization that lacks adaptivity and fairness reasoning;
//! this implementation lets the experiment suite show both properties.

use crate::optimizer::{Observation, OnlineOptimizer};
use crate::settings::{SearchBounds, TransferSettings};

/// 1/φ — the golden-section interior-point ratio.
const INV_PHI: f64 = 0.618_033_988_749_894_9;

/// Bracket width at which the search stops shrinking and pins the
/// midpoint (concurrency is integral, so 2 is the natural floor).
const MIN_BRACKET: f64 = 2.0;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Waiting for the utility of the lower interior point.
    ProbeLow,
    /// Waiting for the utility of the upper interior point.
    ProbeHigh { u_low: f64 },
    /// Bracket collapsed: pinned at the midpoint.
    Pinned,
}

/// Golden Section Search optimizer state.
#[derive(Debug, Clone)]
pub struct GoldenSectionOptimizer {
    lo: f64,
    hi: f64,
    phase: Phase,
}

impl GoldenSectionOptimizer {
    /// New search over the bracket `[1, max_concurrency]`.
    pub fn new(max_concurrency: u32) -> Self {
        let (lo, hi) = SearchBounds::concurrency_only(max_concurrency).concurrency;
        GoldenSectionOptimizer {
            lo: f64::from(lo),
            hi: f64::from(hi),
            phase: Phase::ProbeLow,
        }
    }

    /// Current bracket `[lo, hi]`.
    pub fn bracket(&self) -> (u32, u32) {
        (self.lo.round() as u32, self.hi.round() as u32)
    }

    /// Whether the bracket has collapsed (the search is done adapting).
    pub fn is_pinned(&self) -> bool {
        self.phase == Phase::Pinned
    }

    fn x_low(&self) -> u32 {
        (self.hi - (self.hi - self.lo) * INV_PHI).round().max(1.0) as u32
    }

    fn x_high(&self) -> u32 {
        (self.lo + (self.hi - self.lo) * INV_PHI).round().max(1.0) as u32
    }

    fn midpoint(&self) -> u32 {
        ((self.lo + self.hi) / 2.0).round().max(1.0) as u32
    }
}

impl OnlineOptimizer for GoldenSectionOptimizer {
    fn name(&self) -> &'static str {
        "golden-section"
    }

    fn initial(&self) -> TransferSettings {
        TransferSettings::with_concurrency(self.x_low())
    }

    fn next(&mut self, obs: &Observation) -> TransferSettings {
        match self.phase {
            Phase::ProbeLow => {
                self.phase = Phase::ProbeHigh { u_low: obs.utility };
                TransferSettings::with_concurrency(self.x_high())
            }
            Phase::ProbeHigh { u_low } => {
                let u_high = obs.utility;
                if u_low > u_high {
                    // Optimum is left of x_high: discard the upper segment.
                    self.hi = f64::from(self.x_high());
                } else {
                    self.lo = f64::from(self.x_low());
                }
                if self.hi - self.lo <= MIN_BRACKET {
                    self.phase = Phase::Pinned;
                    TransferSettings::with_concurrency(self.midpoint())
                } else {
                    self.phase = Phase::ProbeLow;
                    TransferSettings::with_concurrency(self.x_low())
                }
            }
            // GSS never re-opens its bracket: pinned forever (the
            // adaptivity gap the paper holds against this family).
            Phase::Pinned => TransferSettings::with_concurrency(self.midpoint()),
        }
    }

    /// All state is inline.
    fn memory_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{drive, drive_with, emulab48};
    use crate::utility::UtilityFunction;

    #[test]
    fn finds_the_optimum_of_a_unimodal_landscape() {
        let mut opt = GoldenSectionOptimizer::new(100);
        let trace = drive(&mut opt, emulab48, 40);
        assert!(opt.is_pinned());
        let final_cc = *trace.last().unwrap();
        assert!(
            (42..=54).contains(&final_cc),
            "pinned at {final_cc}: {trace:?}"
        );
    }

    #[test]
    fn converges_in_logarithmic_probes() {
        // Bracket [1, 100] shrinks by φ per evaluation pair:
        // ~2·log(100/2)/log(1/0.618) ≈ 17 probes.
        let mut opt = GoldenSectionOptimizer::new(100);
        let trace = drive(&mut opt, emulab48, 30);
        let pin_at = trace
            .windows(2)
            .position(|w| w[0] == w[1])
            .expect("never pinned");
        assert!(pin_at <= 20, "took {pin_at} probes: {trace:?}");
    }

    #[test]
    fn never_adapts_after_pinning() {
        // The family's documented weakness: shift the optimum after the
        // bracket collapses and GSS stays put.
        let mut opt = GoldenSectionOptimizer::new(100);
        drive(&mut opt, emulab48, 40);
        let pinned = opt.bracket();
        let trace = drive(&mut opt, |n| f64::from(n.min(5)) * 100.0, 20);
        assert_eq!(opt.bracket(), pinned);
        let distinct: std::collections::HashSet<_> = trace.iter().collect();
        assert_eq!(distinct.len(), 1, "pinned GSS should not move: {trace:?}");
    }

    #[test]
    fn respects_bounds() {
        let mut opt = GoldenSectionOptimizer::new(12);
        let trace = drive(&mut opt, |n| f64::from(n) * 10.0, 30);
        assert!(trace.iter().all(|&c| (1..=12).contains(&c)));
    }

    #[test]
    fn bracket_shrinks_monotonically() {
        let mut opt = GoldenSectionOptimizer::new(64);
        let (lo, hi) = opt.bracket();
        let mut widths = vec![hi - lo];
        let eq4 = UtilityFunction::falcon_default();
        let width = |o: &GoldenSectionOptimizer, _| o.bracket().1 - o.bracket().0;
        widths.extend(drive_with(
            &mut opt,
            eq4,
            |s| emulab48(s.concurrency),
            29,
            width,
        ));
        for w in widths.windows(2) {
            assert!(w[1] <= w[0], "bracket grew: {widths:?}");
        }
    }
}
