//! Learning-based tuners behind the `falcon_core::OnlineOptimizer` trait.
//!
//! The paper's tuners (HC/GD/BO, §3.2) are online *searches*; their direct
//! successors in the literature are learning-based controllers — hybrid-RL
//! elastic transfer optimization (arXiv 2511.06159) and RL bandwidth
//! utilization (arXiv 2211.11949). This crate implements three such tuners
//! so the search-vs-learning story can be told inside one deterministic
//! simulator, with the Eq 4 utility as the common reward signal:
//!
//! - [`BanditOptimizer`] (`rl-bandit`): an epsilon-greedy/UCB contextual
//!   bandit over a coarse geometric lattice of the (cc, p, pp) box. A full
//!   seeded sweep seeds the per-arm value table, a UCB-scored argmax picks
//!   the operating point, and a GD-style local steering cycle
//!   (center, +1, center, −1) refines it between lattice points. Drift in
//!   the center arm's value re-triggers a sweep ordered by stale value, and
//!   an improving neighbor probe chains into a doubling-step climb — the
//!   same "confidence scaling" idea as the paper's gradient descent.
//! - [`TabularQOptimizer`] (`rl-q`): a tabular Q-learner over coarse state
//!   features (recent-throughput bucket × loss bucket × lattice position)
//!   and five lattice actions (stay, ±1, ×1.3, ÷1.3) with a decayed
//!   learning rate, shaped priors for unvisited states, a forced up-probe
//!   every few decisions (restores are invisible below the knee), and a
//!   greedy-momentum reflex that chains improving directional moves.
//! - [`WarmTable`] + [`BanditOptimizer::warm_started`] (`rl-warm`): the
//!   bandit's value table fit offline from synthetic traces generated on a
//!   *different* environment (a [`falcon_baselines::HarpHistory`] response
//!   curve, the HARP synthetic-log machinery), then adapted online; a
//!   mismatched environment shows up as value drift and degrades
//!   gracefully into an informed sweep.
//!
//! Determinism discipline: all exploration flows through [`SplitMix64`],
//! the same finalizer as `falcon_par::task_seed`, keyed only by the
//! constructor seed — no `HashMap`, no `Instant`, no thread RNG. The crate
//! is part of falcon-lint's determinism crate set.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod bandit;
mod qlearn;
mod warm;

pub use bandit::{BanditOptimizer, BanditParams};
pub use qlearn::{QParams, TabularQOptimizer};
pub use warm::WarmTable;

use falcon_baselines::HarpHistory;
use falcon_core::{FalconAgent, OnlineOptimizer, SearchBounds, TransferSettings, UtilityFunction};

/// SplitMix64 stream: golden-ratio state advance plus the same finalizer
/// constants as `falcon_par::task_seed`. A pure function of the seed and
/// the draw index — the whole determinism story of this crate rests on it.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// New stream from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `[0, n)`; returns 0 for `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        (self.next_u64() % n as u64) as usize
    }
}

/// Geometric ladder over an inclusive integer range: consecutive rungs grow
/// by ~28% (at least +1), both endpoints always included. For `[1, 64]`
/// this yields 16 arms — coarse enough that a full sweep costs ~80 s at the
/// paper's 5 s probe interval, fine enough that the best arm sits within
/// one local-steering hop of the true optimum.
#[must_use]
pub fn concurrency_lattice(lo: u32, hi: u32) -> Vec<u32> {
    let lo = lo.max(1);
    let hi = hi.max(lo);
    let mut out = Vec::new();
    let mut c = lo;
    while c < hi {
        out.push(c);
        let geometric = (f64::from(c) * 1.28).round() as u32;
        c = geometric.max(c + 1).min(hi);
    }
    out.push(hi);
    out
}

/// The bandit/Q arm lattice of a search box: the cross product of the
/// per-dimension geometric ladders, concurrency varying fastest. A
/// concurrency-only box degenerates to the plain cc ladder.
#[must_use]
pub fn arm_lattice(bounds: &SearchBounds) -> Vec<TransferSettings> {
    let ccs = concurrency_lattice(bounds.concurrency.0, bounds.concurrency.1);
    let ps = concurrency_lattice(bounds.parallelism.0, bounds.parallelism.1);
    let pps = concurrency_lattice(bounds.pipelining.0, bounds.pipelining.1);
    let mut arms = Vec::with_capacity(ccs.len() * ps.len() * pps.len());
    for &pp in &pps {
        for &p in &ps {
            for &cc in &ccs {
                arms.push(TransferSettings {
                    concurrency: cc,
                    parallelism: p,
                    pipelining: pp,
                });
            }
        }
    }
    arms
}

/// Which learning tuner a transfer uses (`rl:bandit`, `rl:q`, `rl:warm`
/// and `rl:warm:<gbps>` in the tuner registry).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RlKind {
    /// Seeded epsilon-greedy/UCB bandit over the concurrency lattice.
    Bandit,
    /// Tabular Q-learner with coarse state features.
    Q,
    /// Bandit warm-started from an offline corpus value table: the 10G
    /// production corpus (`rl:warm`), or one that extrapolates to the given
    /// Gbps (`rl:warm:<gbps>`), as HARP's `harp:<gbps>`.
    Warm(Option<f64>),
}

impl RlKind {
    /// Build one transfer's learning agent behind the Eq 4 utility, on the
    /// [`BanditParams`]/[`QParams`] defaults — the one constructor every
    /// harness (registry, scale shard loop, experiments) goes through.
    /// `Warm` fits its table offline from synthetic traces of its corpus,
    /// then adapts online.
    #[must_use]
    pub fn agent(self, max_cc: u32, seed: u64) -> FalconAgent {
        let params = BanditParams::new(max_cc, seed);
        let optimizer: Box<dyn OnlineOptimizer> = match self {
            RlKind::Bandit => Box::new(BanditOptimizer::new(params)),
            RlKind::Q => Box::new(TabularQOptimizer::new(QParams::new(max_cc, seed))),
            RlKind::Warm(gbps) => {
                let history =
                    gbps.map_or_else(HarpHistory::ten_gig_corpus, HarpHistory::for_capacity_gbps);
                let table = WarmTable::fit(&history, &params.bounds, 24, seed);
                Box::new(BanditOptimizer::warm_started(params, &table))
            }
        };
        FalconAgent::new(UtilityFunction::falcon_default(), optimizer)
    }
}

/// [`RlKind::Bandit`]'s agent.
#[must_use]
pub fn bandit_agent(max_concurrency: u32, seed: u64) -> FalconAgent {
    RlKind::Bandit.agent(max_concurrency, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_pure_and_spread_out() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let distinct: std::collections::BTreeSet<u64> = xs.iter().copied().collect();
        assert_eq!(distinct.len(), 100);
    }

    #[test]
    fn splitmix_f64_in_unit_interval() {
        let mut r = SplitMix64::new(42);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn lattice_includes_both_endpoints_and_is_strictly_increasing() {
        for hi in [1u32, 2, 5, 10, 32, 64, 100] {
            let l = concurrency_lattice(1, hi);
            assert_eq!(l[0], 1);
            assert_eq!(*l.last().expect("non-empty"), hi);
            assert!(l.windows(2).all(|w| w[0] < w[1]), "{l:?}");
        }
    }

    #[test]
    fn lattice_for_64_is_coarse_but_covering() {
        let l = concurrency_lattice(1, 64);
        assert!(
            (12..=20).contains(&l.len()),
            "want ~16 arms for [1,64], got {}: {l:?}",
            l.len()
        );
        // No gap wider than ~30% of the lower rung.
        for w in l.windows(2) {
            assert!(f64::from(w[1]) <= f64::from(w[0]) * 1.4 + 1.0, "{l:?}");
        }
    }

    #[test]
    fn degenerate_range_is_single_arm() {
        assert_eq!(concurrency_lattice(4, 4), vec![4]);
    }

    #[test]
    fn arm_lattice_concurrency_only_is_cc_ladder() {
        let arms = arm_lattice(&SearchBounds::concurrency_only(64));
        assert!(arms.iter().all(|a| a.parallelism == 1 && a.pipelining == 1));
        assert_eq!(arms[0].concurrency, 1);
        assert_eq!(arms.last().expect("non-empty").concurrency, 64);
    }

    #[test]
    fn arm_lattice_multi_param_crosses_dimensions() {
        let arms = arm_lattice(&SearchBounds::multi_parameter(8, 4, 2));
        let ccs = concurrency_lattice(1, 8).len();
        let ps = concurrency_lattice(1, 4).len();
        let pps = concurrency_lattice(1, 2).len();
        assert_eq!(arms.len(), ccs * ps * pps);
        // Concurrency varies fastest.
        assert_eq!(arms[0].concurrency, 1);
        assert_eq!(arms[1].concurrency, 2);
        assert_eq!(arms[0].parallelism, arms[1].parallelism);
    }

    #[test]
    fn agents_have_rl_optimizer_names() {
        assert_eq!(bandit_agent(64, 7).optimizer_name(), "rl-bandit");
        assert_eq!(RlKind::Q.agent(64, 7).optimizer_name(), "rl-q");
        for corpus in [None, Some(1.0)] {
            let name = RlKind::Warm(corpus).agent(64, 7).optimizer_name();
            assert_eq!(name, "rl-warm");
        }
    }
}
