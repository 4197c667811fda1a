//! Tabular Q-learning over coarse transfer-state features.
//!
//! **State** (the "context"): recent-throughput bucket (4 levels of the
//! ratio to a decayed running maximum) × loss bucket (zero / mild / heavy)
//! × current lattice position. **Actions**: stay, ±1 concurrency, ×1.3 and
//! ÷1.3 geometric steps. **Reward**: the Eq 4 utility, normalized by a
//! decayed running scale so `|r| ≤ 1` always — which, with a learning rate
//! `α = 1/(1 + decay·visits) ≤ 1` and discount `γ < 1`, bounds every Q
//! value by `1/(1−γ)` (the contraction property the proptests pin).
//!
//! Three deterministic reflexes close the gaps a cold table leaves:
//! shaped priors for unvisited state-actions (loss-free states prefer up,
//! lossy states prefer down — the virgin policy is a hill climb), a forced
//! up-probe every few decisions (capacity restores are invisible below the
//! knee, exactly the GD `n+1` probing argument), and greedy momentum
//! (an improving directional move chains geometric steps in that direction
//! until improvement stops). Exploration is seeded epsilon-greedy through
//! one [`SplitMix64`] stream.

use falcon_core::{Observation, OnlineOptimizer, TransferSettings};
use falcon_trace::{Candidate, TraceEvent, Tracer};

use crate::{concurrency_lattice, SplitMix64};

const ACTIONS: usize = 5;
const STAY: usize = 0;
const UP1: usize = 1;
const DOWN1: usize = 2;
const UP_BIG: usize = 3;
const DOWN_BIG: usize = 4;
const THR_BUCKETS: usize = 4;
const LOSS_BUCKETS: usize = 3;

/// Q-learner hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct QParams {
    /// Upper end of the concurrency search range `[1, max_concurrency]`.
    pub max_concurrency: u32,
    /// Seed of the exploration stream.
    pub seed: u64,
    /// Discount factor (`< 1` for the contraction bound).
    pub gamma: f64,
}

/// Learning-rate decay: `α = 1/(1 + decay·visits)`.
const ALPHA_DECAY: f64 = 0.15;

/// Initial exploration probability.
const EPSILON0: f64 = 0.25;

/// Exploration floor.
const EPSILON_FLOOR: f64 = 0.05;

/// Per-decision multiplicative epsilon decay.
const EPSILON_DECAY: f64 = 0.99;

/// Every `PROBE_PERIOD`-th decision is a forced +1 probe.
const PROBE_PERIOD: u64 = 4;

/// Relative utility gain that arms/extends greedy momentum.
const ETA: f64 = 0.15;

/// Starting concurrency.
const START: u32 = 1;

impl QParams {
    /// Defaults for a concurrency-only search in `[1, max]`.
    #[must_use]
    pub fn new(max_concurrency: u32, seed: u64) -> Self {
        QParams {
            max_concurrency,
            seed,
            gamma: 0.6,
        }
    }
}

/// Tabular Q-learning optimizer (`rl-q`).
#[derive(Debug, Clone)]
pub struct TabularQOptimizer {
    params: QParams,
    /// Lattice used only as the coarse position feature.
    lattice: Vec<u32>,
    q: Vec<f64>,
    visits: Vec<u32>,
    rng: SplitMix64,
    cc: u32,
    t: u64,
    /// (state, action) behind the most recent proposal.
    prev: Option<(usize, usize)>,
    /// Direction of the most recent action (+1, 0, −1).
    last_dir: i64,
    last_u: f64,
    momentum: Option<(i64, f64)>,
    u_scale: f64,
    max_thr: f64,
    tracer: Tracer,
}

impl TabularQOptimizer {
    /// New learner with the given parameters.
    #[must_use]
    pub fn new(params: QParams) -> Self {
        let lattice = concurrency_lattice(params.max_concurrency);
        let states = THR_BUCKETS * LOSS_BUCKETS * lattice.len();
        TabularQOptimizer {
            q: vec![0.0; states * ACTIONS],
            visits: vec![0; states * ACTIONS],
            rng: SplitMix64::new(params.seed),
            cc: START,
            t: 0,
            prev: None,
            last_dir: 0,
            last_u: 0.0,
            momentum: None,
            u_scale: 1.0,
            max_thr: 1.0,
            tracer: Tracer::default(),
            lattice,
            params,
        }
    }

    /// Largest |Q| in the table — bounded by `1/(1−γ)` for bounded
    /// (normalized) rewards; the contraction proptest pins this.
    #[must_use]
    pub fn max_abs_q(&self) -> f64 {
        self.q.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// Theoretical Q bound for the configured discount.
    #[must_use]
    pub fn q_bound(&self) -> f64 {
        1.0 / (1.0 - self.params.gamma)
    }

    fn lattice_pos(&self, cc: u32) -> usize {
        let mut best = 0usize;
        let mut best_d = u32::MAX;
        for (i, &a) in self.lattice.iter().enumerate() {
            let d = a.abs_diff(cc);
            if d < best_d {
                best = i;
                best_d = d;
            }
        }
        best
    }

    fn state_of(&self, obs: &Observation) -> usize {
        let ratio = obs.metrics.aggregate_mbps / self.max_thr;
        let thr_b = if ratio < 0.3 {
            0
        } else if ratio < 0.6 {
            1
        } else if ratio < 0.85 {
            2
        } else {
            3
        };
        let loss = obs.metrics.loss_rate;
        let loss_b = if loss < 1e-4 {
            0
        } else if loss < 0.01 {
            1
        } else {
            2
        };
        (thr_b * LOSS_BUCKETS + loss_b) * self.lattice.len()
            + self.lattice_pos(obs.settings.concurrency)
    }

    /// Shaped prior for an unvisited (state, action): loss-free states
    /// prefer climbing, lossy states prefer backing off — the virgin
    /// policy is a hill climb with a loss brake.
    fn prior(&self, s: usize, a: usize) -> f64 {
        let loss_b = (s / self.lattice.len()) % LOSS_BUCKETS;
        match (loss_b, a) {
            (0, UP1) => 0.08,
            (0, UP_BIG) => 0.02,
            (0, DOWN1 | DOWN_BIG) => -0.05,
            (1, STAY) => 0.02,
            (1, UP_BIG) => -0.10,
            (1, DOWN_BIG) => -0.02,
            // DOWN_BIG over DOWN1: a ×1.3 step is the smallest move whose
            // utility relief clears the momentum gate, which then chains
            // the descent; −1 steps improve too little to learn from under
            // a γ-discounted horizon.
            (2, DOWN1) => 0.15,
            (2, DOWN_BIG) => 0.35,
            (2, STAY) => -0.10,
            (2, UP1) => -0.30,
            (2, UP_BIG) => -0.40,
            _ => 0.0,
        }
    }

    fn q_eff(&self, s: usize, a: usize) -> f64 {
        let idx = s * ACTIONS + a;
        if self.visits[idx] == 0 {
            self.prior(s, a)
        } else {
            self.q[idx]
        }
    }

    fn greedy(&self, s: usize) -> usize {
        let mut best = STAY;
        let mut best_q = f64::NEG_INFINITY;
        for a in 0..ACTIONS {
            let q = self.q_eff(s, a);
            if q > best_q {
                best = a;
                best_q = q;
            }
        }
        best
    }

    fn apply(&self, from: u32, a: usize) -> u32 {
        let cc = f64::from(from);
        let next = match a {
            UP1 => from + 1,
            DOWN1 => from.saturating_sub(1),
            UP_BIG => (cc * 1.3).ceil() as u32,
            DOWN_BIG => ((cc / 1.3).floor() as u32).max(1),
            _ => from,
        };
        next.clamp(1, self.params.max_concurrency.max(1))
    }

    fn dir_of(a: usize) -> i64 {
        match a {
            UP1 | UP_BIG => 1,
            DOWN1 | DOWN_BIG => -1,
            _ => 0,
        }
    }

    fn improved(&self, u: f64, base: f64) -> bool {
        u - base > ETA * base.abs().max(0.05 * self.u_scale)
    }

    fn epsilon(&self) -> f64 {
        (EPSILON0 * EPSILON_DECAY.powi(self.t as i32)).max(EPSILON_FLOOR)
    }
}

impl OnlineOptimizer for TabularQOptimizer {
    fn name(&self) -> &'static str {
        "rl-q"
    }

    fn initial(&self) -> TransferSettings {
        TransferSettings::with_concurrency(START)
    }

    fn next(&mut self, obs: &Observation) -> TransferSettings {
        let u = obs.utility;
        self.t += 1;
        // Scales first, so the normalized reward satisfies |r| ≤ 1 and the
        // throughput ratio of the new state is ≤ 1.
        self.u_scale = (self.u_scale * 0.99).max(u.abs()).max(1.0);
        self.max_thr = (self.max_thr * 0.995)
            .max(obs.metrics.aggregate_mbps)
            .max(1.0);
        let r = u / self.u_scale;
        let s2 = self.state_of(obs);

        // One-step Q update for the transition that produced this probe.
        if let Some((s, a)) = self.prev {
            let q_max = (0..ACTIONS)
                .map(|b| self.q_eff(s2, b))
                .fold(f64::NEG_INFINITY, f64::max);
            let idx = s * ACTIONS + a;
            let old = self.q_eff(s, a);
            let alpha = 1.0 / (1.0 + ALPHA_DECAY * f64::from(self.visits[idx]));
            self.visits[idx] = self.visits[idx].saturating_add(1);
            self.q[idx] = old + alpha * (r + self.params.gamma * q_max - old);
        }

        // Greedy momentum: an improving directional move keeps going.
        match self.momentum {
            Some((dir, best_u)) => {
                if self.improved(u, best_u) {
                    self.momentum = Some((dir, u));
                } else {
                    self.momentum = None;
                }
            }
            None => {
                if self.last_dir != 0 && self.improved(u, self.last_u) {
                    self.momentum = Some((self.last_dir, u));
                }
            }
        }
        self.last_u = u;

        let eps = self.epsilon();
        let a = if let Some((dir, _)) = self.momentum {
            if dir > 0 {
                UP_BIG
            } else {
                DOWN_BIG
            }
        } else if self.t.is_multiple_of(PROBE_PERIOD) {
            UP1
        } else if self.rng.next_f64() < eps {
            self.rng.below(ACTIONS)
        } else {
            self.greedy(s2)
        };

        let decided_from = self.cc;
        self.prev = Some((s2, a));
        self.last_dir = Self::dir_of(a);
        self.cc = self.apply(decided_from, a);

        self.tracer.emit(|| TraceEvent::Decision {
            optimizer: "rl-q".to_string(),
            concurrency: self.cc,
            parallelism: 1,
            pipelining: 1,
            terms: vec![
                ("state".to_string(), s2 as f64),
                ("action".to_string(), a as f64),
                ("epsilon".to_string(), eps),
                ("reward".to_string(), r),
                (
                    "momentum".to_string(),
                    self.momentum.map_or(0.0, |(d, _)| d as f64),
                ),
            ],
            // Per-action value breakdown at the decision state: the
            // concurrency each action would land on, with its Q value.
            candidates: (0..ACTIONS)
                .map(|b| Candidate {
                    concurrency: self.apply(decided_from, b),
                    parallelism: 1,
                    utility: self.q_eff(s2, b),
                })
                .collect(),
        });
        TransferSettings::with_concurrency(self.cc)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{drive, emulab10};

    /// Offered load above delivered (100 Mbps per process) shows up as
    /// loss proportional to the excess.
    fn excess_loss(cc: u32, thr: f64) -> f64 {
        if thr < f64::from(cc) * 100.0 * 0.999 {
            ((f64::from(cc) * 100.0 - thr) / (f64::from(cc) * 100.0)).clamp(0.0, 0.3) * 0.1
        } else {
            0.0
        }
    }

    #[test]
    fn virgin_policy_climbs_out_of_the_start() {
        let mut opt = TabularQOptimizer::new(QParams::new(64, 7));
        let trace = drive(&mut opt, emulab10, excess_loss, 20);
        assert!(trace.iter().any(|&c| c >= 6), "never climbed: {trace:?}");
    }

    #[test]
    fn settles_in_the_saturating_region() {
        let mut opt = TabularQOptimizer::new(QParams::new(64, 7));
        let trace = drive(&mut opt, emulab10, excess_loss, 160);
        let tail = &trace[80..];
        let near = tail.iter().filter(|&&c| (6..=24).contains(&c)).count();
        assert!(near * 3 > tail.len() * 2, "tail: {tail:?}");
    }

    #[test]
    fn identical_seeds_reproduce_identical_traces() {
        let mut a = TabularQOptimizer::new(QParams::new(64, 42));
        let mut b = TabularQOptimizer::new(QParams::new(64, 42));
        assert_eq!(
            drive(&mut a, emulab10, excess_loss, 150),
            drive(&mut b, emulab10, excess_loss, 150)
        );
    }

    #[test]
    fn backs_off_when_capacity_drops() {
        let mut opt = TabularQOptimizer::new(QParams::new(64, 7));
        drive(&mut opt, emulab10, excess_loss, 160);
        let degraded = |n: u32| f64::from(n) * 100.0f64.min(300.0 / f64::from(n));
        let trace = drive(&mut opt, degraded, excess_loss, 60);
        let tail = &trace[40..];
        let low = tail.iter().filter(|&&c| c <= 10).count();
        assert!(low * 2 > tail.len(), "did not back off: {tail:?}");
    }

    #[test]
    fn forced_probes_rediscover_a_restore() {
        let mut opt = TabularQOptimizer::new(QParams::new(64, 7));
        drive(&mut opt, emulab10, excess_loss, 80);
        let degraded = |n: u32| f64::from(n) * 100.0f64.min(300.0 / f64::from(n));
        drive(&mut opt, degraded, excess_loss, 60);
        let trace = drive(&mut opt, emulab10, excess_loss, 40);
        assert!(
            trace.iter().any(|&c| c >= 8),
            "restore never discovered: {trace:?}"
        );
    }

    #[test]
    fn q_values_respect_the_contraction_bound() {
        let mut opt = TabularQOptimizer::new(QParams::new(64, 7));
        drive(&mut opt, emulab10, excess_loss, 400);
        assert!(
            opt.max_abs_q() <= opt.q_bound() + 1e-9,
            "|Q| = {} exceeds {}",
            opt.max_abs_q(),
            opt.q_bound()
        );
    }

    #[test]
    fn respects_bounds() {
        let mut opt = TabularQOptimizer::new(QParams::new(5, 11));
        let trace = drive(&mut opt, |n| f64::from(n) * 80.0, excess_loss, 80);
        assert!(trace.iter().all(|&c| (1..=5).contains(&c)), "{trace:?}");
    }
}
