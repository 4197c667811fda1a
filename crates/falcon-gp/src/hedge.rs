//! GP-Hedge: adaptive portfolio of acquisition functions.
//!
//! Hoffman, Brochu & de Freitas ("Portfolio Allocation for Bayesian
//! Optimization", UAI 2011) run several acquisition functions side by side
//! and pick among their proposals with a Hedge/Exp3-style rule (Auer et
//! al. — the paper's reference \[13\]): each acquisition accumulates the
//! posterior mean reward of the points *it* nominated, and the probability
//! of following it next round is the softmax of those gains. Falcon uses
//! this to avoid hand-tuning the exploration/exploitation trade-off (§3.2).

use rand::Rng;

use crate::acquisition::{Acquisition, AcquisitionKind};
use crate::gp::{GpRegressor, Points};
use crate::sweep::{self, AscentPlan, AscentScratch, Lattice, SweepCache};

/// Members of the portfolio.
const MEMBERS: usize = 3;

/// Hedge state over the standard three-member portfolio (EI, PI, UCB),
/// held inline: a portfolio owns no heap.
#[derive(Debug, Clone)]
pub struct GpHedge {
    members: [Acquisition; MEMBERS],
    gains: [f64; MEMBERS],
    /// Hedge learning rate η.
    eta: f64,
    /// Index of the member whose nomination was used last round.
    last_choice: Option<usize>,
    /// Nominated candidate per member from the last `nominate` call.
    last_nominations: [usize; MEMBERS],
}

impl GpHedge {
    /// New portfolio with the default members and learning rate.
    pub fn new() -> Self {
        GpHedge {
            members: AcquisitionKind::portfolio().map(Acquisition::with_defaults),
            gains: [0.0; MEMBERS],
            eta: 1.0,
            last_choice: None,
            last_nominations: [0; MEMBERS],
        }
    }

    /// Current softmax probabilities of each member being followed.
    pub fn probabilities(&self) -> [f64; MEMBERS] {
        // Subtract max gain for numerical stability; rescale gains so the
        // softmax operates on O(1) numbers regardless of utility scale.
        let max = self.gains.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let scale = self
            .gains
            .iter()
            .map(|g| (g - max).abs())
            .fold(1e-9_f64, f64::max);
        let exps = self.gains.map(|g| (self.eta * (g - max) / scale).exp());
        let sum: f64 = exps.iter().sum();
        exps.map(|e| e / sum)
    }

    /// One round: every member nominates via greedy lattice ascent from
    /// the plan's starts (plus an optional strided scan), sharing one
    /// posterior cache across the whole portfolio, then Hedge samples
    /// which nomination to follow. Returns the index into `candidates` of
    /// the chosen point. The caller owns the cache/scratch and must call
    /// `cache.begin(candidates.len())` once per decision before this.
    #[allow(clippy::too_many_arguments)]
    pub fn choose_ascent<L: Lattice, R: Rng>(
        &mut self,
        gp: &GpRegressor,
        candidates: Points<'_>,
        lattice: &L,
        plan: &AscentPlan<'_>,
        cache: &mut SweepCache,
        scratch: &mut AscentScratch,
        best_y: f64,
        rng: &mut R,
    ) -> usize {
        debug_assert!(!candidates.is_empty());
        for (m, nomination) in self.members.iter().zip(&mut self.last_nominations) {
            *nomination = sweep::nominate(m, gp, candidates, lattice, plan, cache, scratch, best_y);
        }
        self.follow(rng)
    }

    /// The Hedge draw: sample a member by its softmax probability and
    /// follow its nomination.
    fn follow<R: Rng>(&mut self, rng: &mut R) -> usize {
        let probs = self.probabilities();
        let mut u: f64 = rng.gen();
        let mut chosen = probs.len() - 1;
        for (i, p) in probs.iter().enumerate() {
            if u < *p {
                chosen = i;
                break;
            }
            u -= p;
        }
        self.last_choice = Some(chosen);
        self.last_nominations[chosen]
    }

    /// Update the gains: after the chosen point was evaluated, each member is
    /// rewarded with the posterior mean at the point *it* had nominated
    /// (the GP-Hedge reward rule — members get credit for what they would
    /// have chosen, evaluated under the updated surrogate).
    pub fn update<F: FnMut(usize) -> f64>(&mut self, mut posterior_mean_of_candidate: F) {
        for (i, &nom) in self.last_nominations.iter().enumerate() {
            self.gains[i] += posterior_mean_of_candidate(nom);
        }
        // Keep gains bounded: Hedge only cares about differences.
        let mean = self.gains.iter().sum::<f64>() / self.gains.len() as f64;
        for g in &mut self.gains {
            *g -= mean;
        }
    }

    /// The member followed in the last round.
    pub fn last_choice(&self) -> Option<AcquisitionKind> {
        self.last_choice.map(|i| self.members[i].kind)
    }
}

impl Default for GpHedge {
    fn default() -> Self {
        GpHedge::new()
    }
}

#[cfg(test)]
impl GpHedge {
    /// Full-scan oracle for [`GpHedge::choose_ascent`]: every member
    /// nominates its argmax over the whole candidate set, then the same
    /// Hedge draw picks which nomination to follow.
    fn choose<R: Rng>(
        &mut self,
        gp: &GpRegressor,
        candidates: Points<'_>,
        best_y: f64,
        rng: &mut R,
    ) -> usize {
        self.last_nominations = self.members.map(|m| m.argmax(gp, candidates, best_y));
        self.follow(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Matern52;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_gp() -> GpRegressor {
        let x = [0.0, 2.0, 5.0, 8.0, 10.0];
        let y = [0.0, 3.0, 5.0, 3.0, 0.0];
        GpRegressor::fit(Points::new(&x, 1), &y, Matern52::new(4.0, 2.0), 1e-4).unwrap()
    }

    #[test]
    fn initial_probabilities_uniform() {
        let h = GpHedge::new();
        for p in h.probabilities() {
            assert!((p - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn probabilities_sum_to_one_after_updates() {
        let mut h = GpHedge::new();
        let gp = toy_gp();
        let flat: Vec<f64> = (0..=10).map(f64::from).collect();
        let candidates = Points::new(&flat, 1);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5 {
            h.choose(&gp, candidates, 4.0, &mut rng);
            h.update(|i| candidates.get(i)[0]); // arbitrary reward
        }
        let s: f64 = h.probabilities().iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn consistently_rewarded_member_gains_probability() {
        // Drive the Hedge update directly with distinct nominations per
        // member (members can legitimately nominate the same candidate, in
        // which case Hedge keeps them tied — so force them apart here).
        let mut h = GpHedge::new();
        for _ in 0..20 {
            h.last_nominations = [0, 1, 2];
            h.update(|i| if i == 0 { 10.0 } else { 0.0 });
        }
        let p = h.probabilities();
        assert!(
            p[0] > p[1] && p[0] > p[2],
            "member 0 should dominate: {p:?}"
        );
    }

    #[test]
    fn identical_nominations_keep_members_tied() {
        let mut h = GpHedge::new();
        for _ in 0..10 {
            h.last_nominations = [4, 4, 4];
            h.update(|_| 7.0);
        }
        let p = h.probabilities();
        for v in &p {
            assert!((v - 1.0 / 3.0).abs() < 1e-9, "{p:?}");
        }
    }

    #[test]
    fn choose_returns_valid_candidate_index() {
        let mut h = GpHedge::new();
        let gp = toy_gp();
        let flat: Vec<f64> = (0..=10).map(f64::from).collect();
        let candidates = Points::new(&flat, 1);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..30 {
            let i = h.choose(&gp, candidates, 4.0, &mut rng);
            assert!(i < candidates.len());
        }
    }

    #[test]
    fn choose_ascent_matches_full_scan_choose_on_smooth_surface() {
        use crate::sweep::{AscentPlan, AscentScratch, LineLattice, SweepCache};
        let gp = toy_gp();
        let flat: Vec<f64> = (0..=20).map(|i| f64::from(i) * 0.5).collect();
        let candidates = Points::new(&flat, 1);
        let lattice = LineLattice::new(candidates.len());
        let mut cache = SweepCache::new();
        let mut scratch = AscentScratch::default();
        let starts = [0usize, 10, 20];
        let plan = AscentPlan {
            starts: &starts,
            scan_stride: None,
        };
        // Same seed on both paths: when nominations agree, the Hedge draw
        // (and therefore the decision) must agree too.
        let mut rng_a = StdRng::seed_from_u64(17);
        let mut rng_b = StdRng::seed_from_u64(17);
        let mut scan = GpHedge::new();
        let mut ascent = GpHedge::new();
        for _ in 0..6 {
            let a = scan.choose(&gp, candidates, 4.0, &mut rng_a);
            cache.begin(candidates.len());
            let b = ascent.choose_ascent(
                &gp,
                candidates,
                &lattice,
                &plan,
                &mut cache,
                &mut scratch,
                4.0,
                &mut rng_b,
            );
            assert_eq!(a, b);
            assert!(cache.evals() < candidates.len());
            scan.update(|i| candidates.get(i)[0]);
            ascent.update(|i| candidates.get(i)[0]);
        }
    }

    #[test]
    fn last_choice_recorded() {
        let mut h = GpHedge::new();
        assert!(h.last_choice().is_none());
        let gp = toy_gp();
        let flat: Vec<f64> = (0..=10).map(f64::from).collect();
        let candidates = Points::new(&flat, 1);
        let mut rng = StdRng::seed_from_u64(5);
        h.choose(&gp, candidates, 4.0, &mut rng);
        assert!(h.last_choice().is_some());
    }
}
