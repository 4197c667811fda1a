//! Bayesian Optimization search (§3.2, §4.6).
//!
//! Non-parametric sequential model-based optimization: a Gaussian-process
//! surrogate captures the utility-vs-settings relationship, and an
//! acquisition function chooses the next probe. Per the paper:
//!
//! - the random-sampling warm-up is limited to **3 probes**;
//! - the surrogate uses only the most recent **20 observations**, so stale
//!   measurements age out (fast adaptation) and GP cost stays in the
//!   milliseconds;
//! - acquisition functions and their exploration ratios are managed in real
//!   time by **GP-Hedge** ([`falcon_gp::GpHedge`]).
//!
//! The search loop ([`BayesianSearch`]) exists once, over a [`Space`] of
//! candidate settings: the concurrency line of this module
//! ([`BayesianOptimizer`], with §4.6's growing ceiling) or the
//! connection-capped `(cc, p)` grid of [`crate::bayesian_mp`]. A space owns
//! its candidate indexing and its random draw; everything else — window,
//! random phase, surrogate upkeep, ascent plan, Hedge round, decision
//! trace — is shared.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use falcon_gp::{AscentPlan, AscentScratch, GpHedge, Lattice, LineLattice, SweepCache};
use falcon_trace::{Candidate, TraceEvent, Tracer};

use crate::optimizer::{Observation, OnlineOptimizer};
use crate::settings::{SearchBounds, TransferSettings};
use crate::surrogate::CachedSurrogate;

/// Random probes before the surrogate takes over (paper: 3).
const RANDOM_INIT: usize = 3;

/// Sliding window of observations kept in the surrogate (paper: 20).
const WINDOW: usize = 20;

/// Observation-noise variance on unit-variance-normalized utilities.
const NOISE_VARIANCE: f64 = 0.02;

/// Every this-many surrogate decisions, the local-ascent argmax is seeded
/// with a strided scan of the whole candidate set (stride
/// `max(1, len/SCAN_POINTS)`), so basins far from every ascent start stay
/// reachable. The decisions in between evaluate only the handful of
/// posteriors the ascent paths touch.
const SCAN_PERIOD: usize = 4;

/// Number of points the periodic strided scan samples across the space.
const SCAN_POINTS: usize = 16;

/// The candidate settings a [`BayesianSearch`] chooses among, indexed
/// `0..points().len()` in step with the GP query points and the lattice.
pub trait Space: Send {
    /// Neighbourhood structure the acquisition ascent walks.
    type Lattice: Lattice;

    /// Optimizer name for logs and decision events.
    const NAME: &'static str;

    /// GP query point of every current candidate.
    fn points(&self) -> &[Vec<f64>];

    /// Lattice over the current candidates.
    fn lattice(&self) -> &Self::Lattice;

    /// GP input of an observed setting (candidate or not).
    fn input(s: TransferSettings) -> Vec<f64>;

    /// The setting candidate `idx` stands for.
    fn setting(&self, idx: usize) -> TransferSettings;

    /// Candidate index an observed setting maps to, if any.
    fn index_of(&self, s: TransferSettings) -> Option<usize>;

    /// Uniform draw over the current candidates.
    fn draw(&self, rng: &mut StdRng) -> TransferSettings;

    /// Told every surrogate decision, after it is made.
    fn decided(&mut self, _chosen: TransferSettings) {}
}

/// Bayesian Optimization over a candidate [`Space`].
pub struct BayesianSearch<S: Space> {
    pub(crate) space: S,
    rng: StdRng,
    /// Sliding window of (setting, utility) observations.
    history: VecDeque<(TransferSettings, f64)>,
    hedge: GpHedge,
    first_probe: TransferSettings,
    probes_issued: usize,
    /// GP surrogate reused across probes (`None` until the first full fit,
    /// or after a fit failure).
    surrogate: Option<CachedSurrogate>,
    /// Shared posterior memo for the acquisition portfolio (one epoch per
    /// decision).
    sweep_cache: SweepCache,
    ascent_scratch: AscentScratch,
    /// Candidate index chosen by the previous surrogate decision — an
    /// ascent start for the next one.
    last_idx: Option<usize>,
    /// Surrogate decisions made (drives the periodic scan and the rotating
    /// ascent start).
    decisions: usize,
    tracer: Tracer,
}

impl<S: Space> BayesianSearch<S> {
    /// New search over `space`; the first probe is a random candidate.
    pub(crate) fn over(space: S, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let first_probe = space.draw(&mut rng);
        BayesianSearch {
            space,
            rng,
            history: VecDeque::with_capacity(WINDOW + 1),
            hedge: GpHedge::new(),
            first_probe,
            probes_issued: 1,
            surrogate: None,
            sweep_cache: SweepCache::new(),
            ascent_scratch: AscentScratch::default(),
            last_idx: None,
            decisions: 0,
            tracer: Tracer::default(),
        }
    }

    /// Observations currently inside the sliding window.
    pub fn window_len(&self) -> usize {
        self.history.len()
    }

    /// The acquisition function GP-Hedge followed most recently.
    pub fn last_acquisition(&self) -> Option<falcon_gp::AcquisitionKind> {
        self.hedge.last_choice()
    }

    /// Decision event for `s`; `mean` is its posterior mean when the
    /// surrogate chose it.
    fn emit_decision(&self, s: TransferSettings, terms: &[(&str, f64)], mean: Option<f64>) {
        self.tracer.emit(|| TraceEvent::Decision {
            optimizer: S::NAME.to_string(),
            concurrency: s.concurrency,
            parallelism: s.parallelism,
            pipelining: s.pipelining,
            terms: terms.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            candidates: mean
                .map(|utility| Candidate {
                    concurrency: s.concurrency,
                    parallelism: s.parallelism,
                    utility,
                })
                .into_iter()
                .collect(),
        });
    }

    /// Full `fit_auto` over the current window; replaces the cached
    /// surrogate (or clears it on fit failure).
    fn refit_surrogate(&mut self) {
        let xs: Vec<Vec<f64>> = self.history.iter().map(|&(s, _)| S::input(s)).collect();
        let ys: Vec<f64> = self.history.iter().map(|&(_, u)| u).collect();
        self.surrogate = CachedSurrogate::fit(&xs, &ys, NOISE_VARIANCE);
    }

    fn surrogate_probe(&mut self) -> TransferSettings {
        // Keep the surrogate current: drift-keyed full refits
        // (re-windowing, re-normalizing, re-selecting hyperparameters), a
        // true O(n²) window slide — append newest, evict oldest — for the
        // steady-state probes in between (see `crate::surrogate`).
        let due_for_refit = self
            .surrogate
            .as_ref()
            .is_none_or(CachedSurrogate::due_for_refit);
        if due_for_refit {
            self.refit_surrogate();
        } else if let (Some(su), Some(&(s, u))) = (self.surrogate.as_mut(), self.history.back()) {
            if !su.slide(S::input(s), u, WINDOW) {
                self.refit_surrogate();
            }
        }
        let Some(su) = self.surrogate.as_ref() else {
            return self.space.draw(&mut self.rng);
        };

        // Ascent starts: the incumbent best observation, the previous
        // decision, and a rotating probe so repeated decisions seed fresh
        // basins. Every SCAN_PERIOD-th decision adds a strided global scan.
        let points = self.space.points();
        let len = points.len();
        let incumbent = self
            .history
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .and_then(|&(s, _)| self.space.index_of(s))
            .unwrap_or(0);
        let starts = [
            incumbent,
            self.last_idx.unwrap_or(incumbent),
            (self.decisions * 37) % len,
        ];
        let plan = AscentPlan {
            starts: &starts,
            scan_stride: self
                .decisions
                .is_multiple_of(SCAN_PERIOD)
                .then_some((len / SCAN_POINTS).max(1)),
        };
        self.decisions += 1;
        self.sweep_cache.begin(len);
        let idx = self.hedge.choose_ascent(
            &su.gp,
            points,
            self.space.lattice(),
            &plan,
            &mut self.sweep_cache,
            &mut self.ascent_scratch,
            su.best_y,
            &mut self.rng,
        );
        self.last_idx = Some(idx);
        // Reward each portfolio member with the posterior mean of the point
        // it nominated (GP-Hedge update rule). Nominated posteriors are
        // already memoized in the sweep cache from the ascent above.
        let cache = &mut self.sweep_cache;
        self.hedge.update(|i| cache.posterior(&su.gp, points, i).0);
        let chosen = self.space.setting(idx);
        if self.tracer.is_enabled() {
            let (mean, sd) = self.sweep_cache.posterior(&su.gp, points, idx);
            let terms = [
                ("best_y", su.best_y),
                ("posterior_mean", mean),
                ("posterior_sd", sd.max(0.0)),
            ];
            self.emit_decision(chosen, &terms, Some(mean));
        }
        self.space.decided(chosen);
        chosen
    }
}

impl<S: Space> OnlineOptimizer for BayesianSearch<S> {
    fn name(&self) -> &'static str {
        S::NAME
    }

    fn initial(&self) -> TransferSettings {
        self.first_probe
    }

    fn next(&mut self, obs: &Observation) -> TransferSettings {
        self.history.push_back((obs.settings, obs.utility));
        while self.history.len() > WINDOW {
            self.history.pop_front();
        }
        let next = if self.probes_issued < RANDOM_INIT {
            let s = self.space.draw(&mut self.rng);
            self.emit_decision(s, &[("random_phase", 1.0)], None);
            s
        } else {
            self.surrogate_probe()
        };
        self.probes_issued += 1;
        next
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }
}

/// Bayesian Optimization parameters.
#[derive(Debug, Clone, Copy)]
pub struct BoParams {
    /// Search bounds.
    pub bounds: SearchBounds,
    /// RNG seed (BO is stochastic; seeding keeps experiments reproducible).
    pub seed: u64,
    /// §4.6's proposed fix for BO's aggressive random phase: start the
    /// search space at this ceiling and double it only when the discovered
    /// optimum sits near the current maximum. `None` = full space from the
    /// start (the paper's default behaviour).
    pub initial_space: Option<u32>,
}

impl BoParams {
    /// Paper defaults for a concurrency-only search.
    pub fn new(max_concurrency: u32) -> Self {
        BoParams {
            bounds: SearchBounds::concurrency_only(max_concurrency),
            seed: 0x0fa1c0,
            initial_space: None,
        }
    }

    /// Override the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable dynamic search-space growth from an initial ceiling (§4.6).
    pub fn with_dynamic_space(mut self, initial_max: u32) -> Self {
        self.initial_space = Some(initial_max.max(2));
        self
    }
}

/// The concurrency line `lo..=ceiling`: 1-D GP inputs, candidate `i` is
/// concurrency `lo + i`, and the ceiling doubles toward `hard_hi` under
/// [`BoParams::with_dynamic_space`].
pub struct LineSpace {
    lo: u32,
    /// Where the ceiling stops growing; a search without §4.6's dynamic
    /// space starts there.
    hard_hi: u32,
    /// Consecutive surrogate decisions that landed near the ceiling.
    near_max_streak: u32,
    /// Query points of `lo..=hard_hi`; the candidates are the prefix up to
    /// the current ceiling.
    points: Vec<Vec<f64>>,
    /// `lo..=ceiling` as a lattice; its length is what moves the ceiling.
    lattice: LineLattice,
}

impl LineSpace {
    fn new(bounds: (u32, u32), initial_space: Option<u32>) -> Self {
        let (lo, hard_hi) = bounds;
        let ceiling = initial_space.map_or(hard_hi, |s| s.clamp(lo, hard_hi));
        LineSpace {
            lo,
            hard_hi,
            near_max_streak: 0,
            points: (lo..=hard_hi).map(|n| vec![f64::from(n)]).collect(),
            lattice: LineLattice::new((ceiling - lo + 1) as usize),
        }
    }

    /// Current ceiling of the (possibly growing) search space.
    fn ceiling(&self) -> u32 {
        self.lo + self.lattice.len() as u32 - 1
    }
}

impl Space for LineSpace {
    type Lattice = LineLattice;

    const NAME: &'static str = "bayesian-optimization";

    fn points(&self) -> &[Vec<f64>] {
        &self.points[..self.lattice.len()]
    }

    fn lattice(&self) -> &LineLattice {
        &self.lattice
    }

    fn input(s: TransferSettings) -> Vec<f64> {
        vec![f64::from(s.concurrency)]
    }

    fn setting(&self, idx: usize) -> TransferSettings {
        TransferSettings::with_concurrency(self.lo + idx as u32)
    }

    fn index_of(&self, s: TransferSettings) -> Option<usize> {
        Some((s.concurrency.clamp(self.lo, self.ceiling()) - self.lo) as usize)
    }

    fn draw(&self, rng: &mut StdRng) -> TransferSettings {
        TransferSettings::with_concurrency(rng.gen_range(self.lo..=self.ceiling()))
    }

    /// §4.6: grow the ceiling only after the surrogate repeatedly prefers
    /// settings close to it — the optimum may lie beyond.
    fn decided(&mut self, chosen: TransferSettings) {
        let ceiling = self.ceiling();
        if ceiling >= self.hard_hi {
            return;
        }
        if chosen.concurrency * 4 >= ceiling * 3 {
            self.near_max_streak += 1;
            if self.near_max_streak >= 3 {
                let grown = (ceiling * 2).min(self.hard_hi);
                self.lattice = LineLattice::new((grown - self.lo + 1) as usize);
                self.near_max_streak = 0;
            }
        } else {
            self.near_max_streak = 0;
        }
    }
}

/// Bayesian Optimization over concurrency (§3.2).
pub type BayesianOptimizer = BayesianSearch<LineSpace>;

impl BayesianOptimizer {
    /// New search with the given parameters.
    pub fn new(params: BoParams) -> Self {
        let space = LineSpace::new(params.bounds.concurrency, params.initial_space);
        BayesianSearch::over(space, params.seed)
    }

    /// Current ceiling of the search space (grows under
    /// [`BoParams::with_dynamic_space`]).
    pub fn current_max(&self) -> u32 {
        self.space.ceiling()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{drive, emulab10};

    #[test]
    fn concentrates_probes_near_optimum() {
        let mut opt = BayesianOptimizer::new(BoParams::new(32));
        let trace = drive(&mut opt, emulab10, 40);
        // After warm-up, most probes should sit in the optimal region
        // (the paper's Figure 10(a): BO "focuses around concurrency 10").
        let later = &trace[10..];
        let near = later.iter().filter(|&&c| (8..=14).contains(&c)).count();
        assert!(
            near * 2 > later.len(),
            "only {near}/{} probes near optimum: {trace:?}",
            later.len()
        );
    }

    #[test]
    fn keeps_exploring_after_convergence() {
        let mut opt = BayesianOptimizer::new(BoParams::new(32));
        let trace = drive(&mut opt, emulab10, 60);
        let tail = &trace[30..];
        // Limited window forces periodic exploration: the tail is not
        // a single repeated value.
        let distinct: std::collections::HashSet<_> = tail.iter().collect();
        assert!(distinct.len() >= 2, "tail froze: {tail:?}");
    }

    #[test]
    fn window_is_bounded_at_20() {
        let mut opt = BayesianOptimizer::new(BoParams::new(32));
        drive(&mut opt, emulab10, 50);
        assert!(opt.window_len() <= 20);
    }

    #[test]
    fn probes_stay_in_bounds() {
        let mut opt = BayesianOptimizer::new(BoParams::new(16));
        let trace = drive(&mut opt, emulab10, 50);
        assert!(trace.iter().all(|&c| (1..=16).contains(&c)));
    }

    #[test]
    fn can_probe_aggressively_during_random_phase() {
        // §4.5: BO "can probe very high concurrency values during the
        // initial search phase". With a wide space and several seeds, the
        // warm-up must sometimes land in the top quarter.
        let mut saw_high = false;
        for seed in 0..10 {
            let mut opt = BayesianOptimizer::new(BoParams::new(64).with_seed(seed));
            let mut first3 = vec![opt.initial().concurrency];
            let trace = drive(&mut opt, emulab10, 2);
            first3.extend(trace);
            if first3.iter().any(|&c| c > 48) {
                saw_high = true;
                break;
            }
        }
        assert!(saw_high, "random phase never probed the top quarter");
    }

    #[test]
    fn adapts_when_optimum_moves() {
        let mut opt = BayesianOptimizer::new(BoParams::new(64));
        drive(
            &mut opt,
            |n| f64::from(n) * 21.0f64.min(1008.0 / f64::from(n)),
            40,
        );
        // Optimum collapses to 10; within ~1.5 windows BO must follow.
        let trace = drive(&mut opt, emulab10, 40);
        let tail = &trace[25..];
        let near = tail.iter().filter(|&&c| c <= 20).count();
        assert!(
            near * 2 > tail.len(),
            "did not adapt to the new optimum: {tail:?}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed: u64| {
            let mut opt = BayesianOptimizer::new(BoParams::new(32).with_seed(seed));
            drive(&mut opt, emulab10, 20)
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn hedge_engages_after_warmup() {
        let mut opt = BayesianOptimizer::new(BoParams::new(32));
        assert!(opt.last_acquisition().is_none());
        drive(&mut opt, emulab10, 6);
        assert!(opt.last_acquisition().is_some());
    }

    #[test]
    fn dynamic_space_limits_early_probes() {
        // §4.6: with a 16-ceiling start, the aggressive random phase cannot
        // create more than 16 streams.
        let mut opt = BayesianOptimizer::new(BoParams::new(64).with_seed(3).with_dynamic_space(16));
        let mut first = vec![opt.initial().concurrency];
        first.extend(drive(&mut opt, emulab10, 4));
        assert!(
            first.iter().all(|&c| c <= 16),
            "early probes escaped the initial space: {first:?}"
        );
    }

    #[test]
    fn dynamic_space_grows_to_reach_high_optimum() {
        // Optimum 48 with a 16-ceiling start: the ceiling must double its
        // way up and the search must eventually probe beyond 32.
        let mut opt = BayesianOptimizer::new(BoParams::new(64).with_seed(5).with_dynamic_space(16));
        let landscape = |n: u32| f64::from(n) * 21.0f64.min(1008.0 / f64::from(n));
        let trace = drive(&mut opt, landscape, 60);
        assert!(
            opt.current_max() > 32,
            "ceiling stuck at {}",
            opt.current_max()
        );
        assert!(
            trace.iter().any(|&c| c > 32),
            "never probed past 32: {trace:?}"
        );
    }

    #[test]
    fn dynamic_space_stays_small_when_optimum_is_low() {
        // Optimum 10 with a 16-ceiling start: no reason to grow much.
        let mut opt = BayesianOptimizer::new(BoParams::new(64).with_seed(7).with_dynamic_space(16));
        drive(&mut opt, emulab10, 60);
        assert!(
            opt.current_max() <= 32,
            "ceiling grew needlessly to {}",
            opt.current_max()
        );
    }
}
