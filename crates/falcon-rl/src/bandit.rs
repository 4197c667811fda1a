//! Seeded epsilon-greedy/UCB contextual bandit over the concurrency lattice.
//!
//! The arm set is the geometric [`crate::concurrency_lattice`]; the
//! reward is the Eq 4 utility the agent's utility function already
//! computes. Four mechanisms cooperate:
//!
//! 1. **Sweep** — a full pass over the arms seeds the value table (and,
//!    after drift, refreshes it in stale-value-descending order so the
//!    most promising arms are re-measured first and throughput stays near
//!    achievable *during* the refresh).
//! 2. **Steer** — at the UCB-best arm, a GD-style probe cycle
//!    (center, +1, center, −1) walks the fine concurrency grid between
//!    lattice points and keeps re-testing the neighborhood forever, which
//!    is what makes capacity *restores* visible from below the knee.
//! 3. **Climb** — when a neighbor probe improves utility beyond the noise
//!    threshold, the search chains doubling steps in that direction until
//!    improvement stops (the discrete analogue of GD confidence scaling).
//! 4. **Jump** — with probability epsilon a probe goes to a uniformly
//!    seeded random arm; if the far arm beats the center it is adopted.
//!
//! Value drift at the center arm (an observation far from the arm's
//! learned value) means the environment changed: the bandit re-sweeps
//! rather than trusting a stale table. All randomness flows through one
//! [`SplitMix64`] stream keyed by the constructor seed.

use falcon_core::{Observation, OnlineOptimizer, TransferSettings};
use falcon_trace::{Candidate, TraceEvent, Tracer};

use crate::warm::WarmTable;
use crate::{concurrency_lattice, SplitMix64};

/// Probability of a far exploration jump per steering decision.
const EPSILON: f64 = 0.04;

/// Floor of the recency-weighted value blend (1/n below the floor).
const ALPHA_FLOOR: f64 = 0.25;

/// UCB bonus weight (in units of the running utility scale).
const UCB_C: f64 = 0.05;

/// Relative surprise at the center arm that triggers a re-sweep.
const DRIFT: f64 = 0.5;

/// Relative utility gain that counts as an improvement (noise gate).
const ETA: f64 = 0.03;

/// What the table knows of one arm.
#[derive(Debug, Clone, Copy, Default)]
struct ArmValue {
    /// Recency-weighted utility.
    value: f64,
    /// Observations folded in since the last sweep began.
    count: f64,
}

/// What the most recent proposal was, so the next observation can be
/// interpreted (sweep sample, center re-test, neighbor probe, climb step,
/// or far jump).
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Measuring `order[pos]`; earlier positions already folded in.
    Sweep { pos: usize },
    /// Local probe cycle around the center.
    Steer { phase: u8, last: SteerKind },
    /// Chaining doubling steps in one direction while utility improves.
    Climb {
        dir: i64,
        step: u32,
        best_u: f64,
        best_cc: u32,
    },
}

#[derive(Debug, Clone, Copy)]
enum SteerKind {
    Center,
    Neighbor(i64),
    Jump,
}

/// Epsilon-greedy/UCB bandit optimizer (`rl-bandit`, and `rl-warm` when
/// constructed via [`BanditOptimizer::warm_started`]).
#[derive(Debug, Clone)]
pub struct BanditOptimizer {
    /// Upper end of the concurrency search range `[1, max_cc]`.
    max_cc: u32,
    name: &'static str,
    /// Arm concurrencies: the lattice of `[1, max_cc]`.
    arms: Vec<u32>,
    /// Value and count of each arm, parallel to `arms`.
    table: Vec<ArmValue>,
    /// The sweep order of arm indices, kept between sweeps so a re-sweep
    /// sorts it in place and a decision allocates nothing. One byte per
    /// arm, as the lattice of any `u32` range has under 100 points;
    /// `memory_bytes` counts the `20·n` bytes of `arms` and `table`, not
    /// these `n`.
    order: Vec<u8>,
    rng: SplitMix64,
    mode: Mode,
    /// Fine-grained operating point the steer cycle orbits.
    center: TransferSettings,
    /// Recent utility estimate at the center (EWMA of center probes).
    center_u: f64,
    /// Decayed running scale of |utility|, for relative thresholds.
    u_scale: f64,
    /// Decision counter (the UCB log term).
    t: u64,
    proposed: TransferSettings,
    tracer: Tracer,
}

impl BanditOptimizer {
    /// Cold-start bandit over concurrency `[1, max_concurrency]`: begins
    /// with an ascending sweep of all arms.
    #[must_use]
    pub fn new(max_concurrency: u32, seed: u64) -> Self {
        let max_cc = max_concurrency.max(1);
        let arms = concurrency_lattice(max_cc);
        let n = arms.len();
        let first = TransferSettings::with_concurrency(arms[0]);
        BanditOptimizer {
            max_cc,
            name: "rl-bandit",
            table: vec![ArmValue::default(); n],
            order: (0..=u8::MAX).take(n).collect(),
            rng: SplitMix64::new(seed),
            mode: Mode::Sweep { pos: 0 },
            center: first,
            center_u: 0.0,
            u_scale: 1.0,
            t: 0,
            proposed: first,
            tracer: Tracer::default(),
            arms,
        }
    }

    /// Warm-started bandit (`rl-warm`): the value table comes from an
    /// offline fit on a different environment, held weakly (count 1), and
    /// the search opens in steering mode at the table's argmax. A
    /// mismatched environment shows up as drift at the center on the very
    /// first probes and degrades into an informed sweep.
    #[must_use]
    pub fn warm_started(max_concurrency: u32, seed: u64, table: &WarmTable) -> Self {
        let mut opt = BanditOptimizer::new(max_concurrency, seed);
        opt.name = "rl-warm";
        for (cc, v) in &table.entries {
            if let Some(i) = opt.arms.iter().position(|a| a == cc) {
                opt.table[i] = ArmValue {
                    value: *v,
                    count: 1.0,
                };
            }
        }
        let best = opt.argmax_value();
        opt.center = TransferSettings::with_concurrency(opt.arms[best]);
        opt.center_u = opt.table[best].value;
        opt.u_scale = opt.table.iter().fold(1.0f64, |m, a| m.max(a.value.abs()));
        opt.mode = Mode::Steer {
            phase: 1,
            last: SteerKind::Center,
        };
        opt.proposed = opt.center;
        opt
    }

    /// The arm nearest `s`'s concurrency (the lower one on a tie).
    fn nearest_arm(&self, s: TransferSettings) -> usize {
        let mut best = 0usize;
        let mut best_d = u32::MAX;
        for (i, a) in self.arms.iter().enumerate() {
            let d = a.abs_diff(s.concurrency);
            if d < best_d {
                best = i;
                best_d = d;
            }
        }
        best
    }

    fn argmax_value(&self) -> usize {
        let mut best = 0usize;
        let mut best_v = f64::NEG_INFINITY;
        for (i, a) in self.table.iter().enumerate() {
            if a.count > 0.0 && a.value > best_v {
                best = i;
                best_v = a.value;
            }
        }
        best
    }

    /// UCB-scored argmax: value plus a count bonus in utility-scale units.
    fn argmax_ucb(&self) -> usize {
        let ln_t = (self.t.max(2) as f64).ln();
        let mut best = 0usize;
        let mut best_v = f64::NEG_INFINITY;
        for (i, a) in self.table.iter().enumerate() {
            if a.count <= 0.0 {
                continue;
            }
            let score = a.value + UCB_C * self.u_scale * (ln_t / a.count).sqrt();
            if score > best_v {
                best = i;
                best_v = score;
            }
        }
        best
    }

    fn improved(&self, u: f64, base: f64) -> bool {
        u - base > ETA * base.abs().max(0.05 * self.u_scale)
    }

    fn clamp_cc(&self, cc: i64) -> u32 {
        cc.clamp(1, i64::from(self.max_cc)) as u32
    }

    fn cc_settings(&self, cc: u32) -> TransferSettings {
        TransferSettings {
            concurrency: cc,
            ..self.center
        }
    }

    /// Fold one observation of `arm` into the arm table.
    fn record(&mut self, arm: usize, u: f64) {
        let a = &mut self.table[arm];
        a.count += 1.0;
        let alpha = if a.count <= 1.0 {
            1.0
        } else {
            (1.0 / a.count).max(ALPHA_FLOOR)
        };
        a.value += alpha * (u - a.value);
    }

    /// Begin a sweep ordered by current value descending (stale-promising
    /// arms first), resetting counts so sweep samples overwrite. The order
    /// is total, so sorting the last sweep's permutation gives the same
    /// order as sorting `0..n`.
    fn start_sweep(&mut self) {
        let table = &self.table;
        self.order.sort_unstable_by(|&a, &b| {
            let (va, vb) = (table[usize::from(a)].value, table[usize::from(b)].value);
            vb.total_cmp(&va).then(a.cmp(&b))
        });
        for a in &mut self.table {
            a.count = 0.0;
        }
        self.proposed = TransferSettings::with_concurrency(self.arms[usize::from(self.order[0])]);
        self.mode = Mode::Sweep { pos: 0 };
    }

    /// Leave sweep/climb for the steering cycle at `center`.
    fn settle(&mut self, center: TransferSettings, center_u: f64) {
        self.center = center;
        self.center_u = center_u;
        self.proposed = center;
        self.mode = Mode::Steer {
            phase: 1,
            last: SteerKind::Center,
        };
    }

    /// One steering proposal: epsilon jump or the next phase of the
    /// (center, +1, center, −1) cycle.
    fn steer(&mut self, phase: u8) {
        if self.rng.next_f64() < EPSILON {
            let a = self.rng.below(self.arms.len());
            self.proposed = TransferSettings::with_concurrency(self.arms[a]);
            self.mode = Mode::Steer {
                phase,
                last: SteerKind::Jump,
            };
            return;
        }
        let c = i64::from(self.center.concurrency);
        let (cc, kind) = match phase {
            1 => (self.clamp_cc(c + 1), SteerKind::Neighbor(1)),
            3 => (self.clamp_cc(c - 1), SteerKind::Neighbor(-1)),
            _ => (self.center.concurrency, SteerKind::Center),
        };
        let kind = if cc == self.center.concurrency {
            SteerKind::Center
        } else {
            kind
        };
        self.proposed = self.cc_settings(cc);
        self.mode = Mode::Steer {
            phase: (phase + 1) & 3,
            last: kind,
        };
    }

    fn emit_decision(&self, mode_code: f64, u: f64) {
        self.tracer.emit(|| TraceEvent::Decision {
            optimizer: self.name.to_string(),
            concurrency: self.proposed.concurrency,
            parallelism: self.proposed.parallelism,
            pipelining: self.proposed.pipelining,
            terms: vec![
                ("mode".to_string(), mode_code),
                ("reward".to_string(), u),
                ("center_cc".to_string(), f64::from(self.center.concurrency)),
                ("center_u".to_string(), self.center_u),
                ("u_scale".to_string(), self.u_scale),
            ],
            candidates: self
                .arms
                .iter()
                .zip(&self.table)
                .filter(|(_, a)| a.count > 0.0)
                .map(|(&cc, a)| Candidate {
                    concurrency: cc,
                    parallelism: 1,
                    utility: a.value,
                })
                .collect(),
        });
    }
}

impl OnlineOptimizer for BanditOptimizer {
    fn name(&self) -> &'static str {
        self.name
    }

    fn initial(&self) -> TransferSettings {
        self.proposed
    }

    fn next(&mut self, obs: &Observation) -> TransferSettings {
        let u = obs.utility;
        self.t += 1;
        self.u_scale = (self.u_scale * 0.99).max(u.abs()).max(1.0);

        // Drift gate before the table absorbs the observation: a center
        // observation far from the arm's learned value means the
        // environment changed under us.
        let arm = self.nearest_arm(obs.settings);
        let drifted = matches!(
            self.mode,
            Mode::Steer {
                last: SteerKind::Center,
                ..
            }
        ) && self.table[arm].count >= 1.0
            && {
                let v = self.table[arm].value;
                (u - v).abs() / v.abs().max(u.abs()).max(1.0) > DRIFT
            };
        self.record(arm, u);

        let mode_code;
        if drifted {
            mode_code = 3.0;
            self.start_sweep();
            self.emit_decision(mode_code, u);
            return self.proposed;
        }

        match self.mode {
            Mode::Sweep { pos } => {
                mode_code = 0.0;
                let next = pos + 1;
                if let Some(&arm) = self.order.get(next) {
                    self.proposed = TransferSettings::with_concurrency(self.arms[usize::from(arm)]);
                    self.mode = Mode::Sweep { pos: next };
                } else {
                    let best = self.argmax_ucb();
                    let center = TransferSettings::with_concurrency(self.arms[best]);
                    let center_u = self.table[best].value;
                    self.settle(center, center_u);
                }
            }
            Mode::Climb {
                dir,
                step,
                best_u,
                best_cc,
            } => {
                mode_code = 2.0;
                if self.improved(u, best_u) {
                    let cc = obs.settings.concurrency;
                    let grown = (step * 2).min(16);
                    let target = self.clamp_cc(i64::from(cc) + dir * i64::from(grown));
                    if target == cc {
                        // Pinned at a bound: the climb is over.
                        self.settle(self.cc_settings(cc), u);
                    } else {
                        self.proposed = self.cc_settings(target);
                        self.mode = Mode::Climb {
                            dir,
                            step: grown,
                            best_u: u,
                            best_cc: cc,
                        };
                    }
                } else {
                    self.settle(self.cc_settings(best_cc), best_u);
                }
            }
            Mode::Steer { phase, last } => {
                mode_code = 1.0;
                match last {
                    SteerKind::Center => {
                        self.center_u += 0.5 * (u - self.center_u);
                        self.steer(phase);
                    }
                    SteerKind::Neighbor(dir) => {
                        if self.improved(u, self.center_u) {
                            let cc = obs.settings.concurrency;
                            let target = self.clamp_cc(i64::from(cc) + dir * 2);
                            if target == cc {
                                self.settle(self.cc_settings(cc), u);
                            } else {
                                self.proposed = self.cc_settings(target);
                                self.mode = Mode::Climb {
                                    dir,
                                    step: 2,
                                    best_u: u,
                                    best_cc: cc,
                                };
                            }
                        } else {
                            self.steer(phase);
                        }
                    }
                    SteerKind::Jump => {
                        if self.improved(u, self.center_u) {
                            self.center = obs.settings;
                            self.center_u = u;
                        }
                        self.steer(phase);
                    }
                }
            }
        }
        self.emit_decision(mode_code, u);
        self.proposed
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn memory_bytes(&self) -> usize {
        self.arms.capacity() * std::mem::size_of::<u32>()
            + self.table.capacity() * std::mem::size_of::<ArmValue>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{drive, emulab10};

    #[test]
    fn sweeps_every_arm_then_settles_near_optimum() {
        let mut opt = BanditOptimizer::new(64, 7);
        let arms = opt.arms.len();
        let trace = drive(&mut opt, emulab10, |_, _| 0.0, arms + 40);
        let tail = &trace[arms + 10..];
        let near = tail.iter().filter(|&&c| (8..=16).contains(&c)).count();
        assert!(near * 2 > tail.len(), "tail not near the optimum: {tail:?}");
    }

    #[test]
    fn identical_seeds_reproduce_identical_traces() {
        let mut a = BanditOptimizer::new(64, 99);
        let mut b = BanditOptimizer::new(64, 99);
        assert_eq!(
            drive(&mut a, emulab10, |_, _| 0.0, 120),
            drive(&mut b, emulab10, |_, _| 0.0, 120)
        );
    }

    #[test]
    fn adapts_downward_when_capacity_drops() {
        let mut opt = BanditOptimizer::new(64, 7);
        drive(&mut opt, emulab10, |_, _| 0.0, 60);
        // Capacity drops to 300 Mbps: the drift gate must trigger a
        // re-sweep and the search must settle low.
        let degraded = |n: u32| f64::from(n) * 100.0f64.min(300.0 / f64::from(n));
        let trace = drive(&mut opt, degraded, |_, _| 0.0, 80);
        let tail = &trace[60..];
        let low = tail.iter().filter(|&&c| c <= 8).count();
        assert!(low * 2 > tail.len(), "did not adapt down: {tail:?}");
    }

    #[test]
    fn climbs_back_after_restore_despite_invisible_uplift() {
        let mut opt = BanditOptimizer::new(64, 7);
        drive(&mut opt, emulab10, |_, _| 0.0, 60);
        let degraded = |n: u32| f64::from(n) * 100.0f64.min(300.0 / f64::from(n));
        drive(&mut opt, degraded, |_, _| 0.0, 60);
        // Restore: at the degraded optimum (~3) throughput is unchanged, so
        // only the steering up-probes can discover the uplift.
        let trace = drive(&mut opt, emulab10, |_, _| 0.0, 40);
        let recovered = trace.iter().position(|&c| c >= 8).unwrap_or(trace.len());
        assert!(recovered <= 20, "no recovery within 20 probes: {trace:?}");
        let tail = &trace[25..];
        let near = tail.iter().filter(|&&c| (8..=20).contains(&c)).count();
        assert!(near * 2 > tail.len(), "tail after restore: {tail:?}");
    }

    #[test]
    fn sweep_order_covers_every_arm_of_the_widest_lattice() {
        let opt = BanditOptimizer::new(u32::MAX, 1);
        assert_eq!(opt.order.len(), opt.arms.len());
    }

    #[test]
    fn respects_bounds() {
        let mut opt = BanditOptimizer::new(6, 3);
        let trace = drive(&mut opt, |n| f64::from(n) * 50.0, |_, _| 0.0, 60);
        assert!(trace.iter().all(|&c| (1..=6).contains(&c)), "{trace:?}");
    }

    #[test]
    fn warm_start_skips_the_sweep_on_a_matching_environment() {
        use falcon_baselines::HarpHistory;
        let table = WarmTable::fit(&HarpHistory::for_capacity_gbps(1.0), 32, 7);
        let mut opt = BanditOptimizer::warm_started(32, 7, &table);
        assert_eq!(opt.name(), "rl-warm");
        let trace = drive(&mut opt, emulab10, |_, _| 0.0, 12);
        // No cold sweep: the search stays near the warm argmax from the
        // first probe instead of ramping 1, 2, 3, ...
        let near = trace.iter().filter(|&&c| (6..=16).contains(&c)).count();
        assert!(near * 2 > trace.len(), "warm start swept anyway: {trace:?}");
    }

    #[test]
    fn decision_events_carry_per_arm_values() {
        let mut opt = BanditOptimizer::new(64, 7);
        let tracer = Tracer::recording();
        opt.set_tracer(tracer.clone());
        drive(&mut opt, emulab10, |_, _| 0.0, 30);
        let log = tracer.take_log();
        let decisions: Vec<_> = log
            .records
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::Decision { candidates, .. } => Some(candidates.len()),
                _ => None,
            })
            .collect();
        assert_eq!(decisions.len(), 30);
        // By the end of the sweep every arm has a value in the breakdown.
        assert!(
            *decisions.last().expect("non-empty") >= 10,
            "per-arm breakdown missing: {decisions:?}"
        );
    }
}
