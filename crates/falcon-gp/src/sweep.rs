//! Shared-posterior acquisition sweeps with local lattice ascent.
//!
//! The original decision path scored every candidate for every portfolio
//! member: 3 members × |grid| posterior evaluations per decision, each one
//! an O(n²) GP predict. Two structural facts make that mostly waste:
//!
//! 1. **The posterior is member-independent.** EI, PI, and UCB all score
//!    from the same `(μ, σ)`; only the final arithmetic differs. A
//!    [`SweepCache`] memoizes `(μ, σ)` per candidate per decision, so the
//!    portfolio pays for each posterior once no matter how many members
//!    (or ascent paths) touch it.
//! 2. **Utility-vs-settings surfaces are unimodal-ish.** The paper's Eq 4
//!    utility rises to a knee and falls; acquisition surfaces over it are
//!    locally smooth. Greedy **local ascent on the integer lattice** from
//!    a few good starts (incumbent, previous choice, a rotating probe)
//!    finds the same argmax as a full scan almost always, evaluating a
//!    handful of points instead of the whole grid. A strided fallback
//!    scan every few decisions catches multi-modal surfaces and preserves
//!    exploration (see `AscentPlan::scan_stride`).

use crate::acquisition::Acquisition;
use crate::gp::{GpRegressor, PredictScratch};

/// Candidates whose posteriors one [`SweepCache`] fill computes together.
const LANES: usize = 4;

/// Per-decision memo of posterior `(μ, σ)` by candidate index, shared by
/// every acquisition-function member and every ascent path within one
/// decision. `begin` starts a new decision epoch in O(1); entries are
/// computed lazily on first touch, in aligned blocks of four candidates
/// ([`GpRegressor::predict_lanes`]): an ascent step's neighbours mostly
/// share the block, and four lanes cost little more than one.
#[derive(Debug, Clone, Default)]
pub struct SweepCache {
    mu: Vec<f64>,
    sigma: Vec<f64>,
    /// Epoch in which each block was last filled.
    stamp: Vec<u64>,
    epoch: u64,
    scratch: PredictScratch,
    evals: usize,
}

impl SweepCache {
    /// Fresh cache (no capacity reserved until first use).
    pub fn new() -> Self {
        SweepCache::default()
    }

    /// Start a new decision epoch over `n` candidates. Previously cached
    /// posteriors are invalidated without clearing storage.
    pub fn begin(&mut self, n: usize) {
        if self.mu.len() != n {
            self.mu.clear();
            self.mu.resize(n, 0.0);
            self.sigma.clear();
            self.sigma.resize(n, 0.0);
            self.stamp.clear();
            self.stamp.resize(n.div_ceil(LANES), 0);
        }
        self.epoch += 1;
        self.evals = 0;
    }

    /// Posterior `(μ, σ)` of candidate `i`, computed with the rest of its
    /// block on first touch this epoch and served from the memo
    /// afterwards. A block past the last candidate repeats it in the
    /// padding lanes and keeps only the real ones.
    pub fn posterior(&mut self, gp: &GpRegressor, candidates: &[Vec<f64>], i: usize) -> (f64, f64) {
        let block = i / LANES;
        if self.stamp[block] != self.epoch {
            let first = block * LANES;
            let last = candidates.len() - 1;
            let queries: [&[f64]; LANES] =
                std::array::from_fn(|l| candidates[(first + l).min(last)].as_slice());
            let lanes = gp.predict_lanes(queries, &mut self.scratch);
            for (j, (m, v)) in (first..=last).zip(lanes) {
                self.mu[j] = m;
                self.sigma[j] = v.sqrt();
                self.evals += 1;
            }
            self.stamp[block] = self.epoch;
        }
        (self.mu[i], self.sigma[i])
    }

    /// Posteriors computed since the last `begin`, padding lanes not
    /// counted — the number the local-ascent path exists to keep small.
    pub fn evals(&self) -> usize {
        self.evals
    }
}

/// Neighbourhood structure over a finite candidate set: which candidate
/// indices are one lattice step away. Implementations must be symmetric
/// (`j ∈ N(i)` ⟺ `i ∈ N(j)`) for ascent to behave like hill climbing on
/// an undirected graph.
pub trait Lattice {
    /// Number of candidates.
    fn len(&self) -> usize;

    /// True when the lattice has no candidates.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append the indices adjacent to `idx` to `out` (cleared by the
    /// caller).
    fn neighbors(&self, idx: usize, out: &mut Vec<usize>);
}

/// Contiguous 1-D integer lattice: candidate `i` neighbours `i±1`. The
/// concurrency-only search space.
#[derive(Debug, Clone, Copy)]
pub struct LineLattice {
    len: usize,
}

impl LineLattice {
    /// Lattice over `len` consecutive candidates.
    pub fn new(len: usize) -> Self {
        LineLattice { len }
    }
}

impl Lattice for LineLattice {
    fn len(&self) -> usize {
        self.len
    }

    fn neighbors(&self, idx: usize, out: &mut Vec<usize>) {
        if idx > 0 {
            out.push(idx - 1);
        }
        if idx + 1 < self.len {
            out.push(idx + 1);
        }
    }
}

/// How a decision explores the lattice: ascent starts, plus an optional
/// strided scan for this decision.
#[derive(Debug, Clone, Copy)]
pub struct AscentPlan<'a> {
    /// Candidate indices to start greedy ascent from (out-of-range
    /// entries are clamped to the last candidate). Typical: the incumbent
    /// best observation, the previous decision, and a rotating probe
    /// index so repeated decisions sample fresh basins.
    pub starts: &'a [usize],
    /// `Some(s)`: additionally score every `s`-th candidate and ascend
    /// from the best of them — the periodic global fallback that keeps
    /// multi-modal surfaces and exploration reachable. `None` on the
    /// (cheap) decisions in between.
    pub scan_stride: Option<usize>,
}

/// Reusable index buffers for [`ascend`]/[`nominate`], so the per-decision
/// path performs no allocation.
#[derive(Debug, Clone, Default)]
pub struct AscentScratch {
    nbrs: Vec<usize>,
}

/// Greedy ascent of `acq`'s score from `start`: move to the best strictly
/// improving neighbour until none exists. Returns `(argmax index, score)`.
/// Termination: the score strictly increases each move and the candidate
/// set is finite; the explicit cap is belt-and-braces.
#[allow(clippy::too_many_arguments)]
pub fn ascend<L: Lattice>(
    acq: &Acquisition,
    gp: &GpRegressor,
    candidates: &[Vec<f64>],
    lattice: &L,
    cache: &mut SweepCache,
    scratch: &mut AscentScratch,
    start: usize,
    best_y: f64,
) -> (usize, f64) {
    let mut cur = start.min(lattice.len().saturating_sub(1));
    let (mu, sg) = cache.posterior(gp, candidates, cur);
    let mut cur_score = acq.score_from(mu, sg, best_y);
    for _ in 0..lattice.len() {
        scratch.nbrs.clear();
        lattice.neighbors(cur, &mut scratch.nbrs);
        let mut best = cur;
        let mut best_score = cur_score;
        for k in 0..scratch.nbrs.len() {
            let j = scratch.nbrs[k];
            let (mu, sg) = cache.posterior(gp, candidates, j);
            let s = acq.score_from(mu, sg, best_y);
            if s > best_score {
                best_score = s;
                best = j;
            }
        }
        if best == cur {
            break;
        }
        cur = best;
        cur_score = best_score;
    }
    (cur, cur_score)
}

/// One member's nomination under an [`AscentPlan`]: the best point found
/// by ascending from every start (and from the strided-scan winner, when
/// the plan schedules a scan).
#[allow(clippy::too_many_arguments)]
pub fn nominate<L: Lattice>(
    acq: &Acquisition,
    gp: &GpRegressor,
    candidates: &[Vec<f64>],
    lattice: &L,
    plan: &AscentPlan<'_>,
    cache: &mut SweepCache,
    scratch: &mut AscentScratch,
    best_y: f64,
) -> usize {
    let n = lattice.len();
    debug_assert!(n > 0 && candidates.len() == n);
    let mut best_i = 0;
    let mut best_s = f64::NEG_INFINITY;
    for &start in plan.starts {
        let (i, s) = ascend(acq, gp, candidates, lattice, cache, scratch, start, best_y);
        if s > best_s {
            best_s = s;
            best_i = i;
        }
    }
    if let Some(stride) = plan.scan_stride {
        let stride = stride.max(1);
        let mut scan_best = 0;
        let mut scan_score = f64::NEG_INFINITY;
        let mut i = 0;
        while i < n {
            let (mu, sg) = cache.posterior(gp, candidates, i);
            let s = acq.score_from(mu, sg, best_y);
            if s > scan_score {
                scan_score = s;
                scan_best = i;
            }
            i += stride;
        }
        let (i, s) = ascend(
            acq, gp, candidates, lattice, cache, scratch, scan_best, best_y,
        );
        if s > best_s {
            best_s = s;
            best_i = i;
        }
    }
    let _ = best_s;
    best_i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquisition::AcquisitionKind;
    use crate::kernel::Matern52;

    fn toy_gp() -> GpRegressor {
        // Peak near x = 5 on [0, 10].
        let x: Vec<Vec<f64>> = [0.0, 2.0, 5.0, 8.0, 10.0]
            .iter()
            .map(|&v| vec![v])
            .collect();
        let y = [0.0, 3.0, 5.0, 3.0, 0.0];
        GpRegressor::fit(&x, &y, Matern52::new(4.0, 2.0), 1e-4).unwrap()
    }

    fn grid(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![i as f64 * 10.0 / (n - 1) as f64])
            .collect()
    }

    #[test]
    fn cache_computes_each_posterior_once_per_epoch() {
        // Fills come in aligned blocks of four: 11 candidates make blocks
        // 0..4, 4..8 and a padded 8..11.
        let gp = toy_gp();
        let candidates = grid(11);
        let mut cache = SweepCache::new();
        cache.begin(candidates.len());
        let a = cache.posterior(&gp, &candidates, 3);
        assert_eq!(cache.evals(), 4);
        // A repeat query computes nothing, nor does a candidate of a
        // filled block.
        let b = cache.posterior(&gp, &candidates, 3);
        assert_eq!(a, b);
        cache.posterior(&gp, &candidates, 0);
        assert_eq!(cache.evals(), 4);
        cache.posterior(&gp, &candidates, 7);
        assert_eq!(cache.evals(), 8);
        // The padded tail counts its real candidates only.
        cache.posterior(&gp, &candidates, 10);
        assert_eq!(cache.evals(), 11);
        cache.posterior(&gp, &candidates, 8);
        assert_eq!(cache.evals(), 11);
        // New epoch invalidates.
        cache.begin(candidates.len());
        assert_eq!(cache.evals(), 0);
        cache.posterior(&gp, &candidates, 3);
        assert_eq!(cache.evals(), 4);
    }

    #[test]
    fn cache_matches_direct_predict() {
        let gp = toy_gp();
        let candidates = grid(11);
        let mut cache = SweepCache::new();
        cache.begin(candidates.len());
        for i in 0..candidates.len() {
            let (m, s) = cache.posterior(&gp, &candidates, i);
            let (dm, dv) = gp.predict_into(&candidates[i], &mut PredictScratch::default());
            assert_eq!(m, dm);
            assert_eq!(s, dv.sqrt());
        }
    }

    #[test]
    fn line_lattice_neighbors() {
        let l = LineLattice::new(5);
        let mut out = Vec::new();
        l.neighbors(0, &mut out);
        assert_eq!(out, vec![1]);
        out.clear();
        l.neighbors(2, &mut out);
        assert_eq!(out, vec![1, 3]);
        out.clear();
        l.neighbors(4, &mut out);
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn ascend_returns_a_lattice_local_maximum_without_descending() {
        // Acquisition surfaces are multimodal between training points
        // (σ bumps), so pure greedy ascent only promises a *local*
        // argmax: score never below the start, no neighbour strictly
        // better, and far fewer posterior evals than a full scan.
        let gp = toy_gp();
        let candidates = grid(21);
        let lattice = LineLattice::new(candidates.len());
        for kind in AcquisitionKind::portfolio() {
            let acq = Acquisition::with_defaults(kind);
            for start in [0usize, 5, 10, 20] {
                let mut cache = SweepCache::new();
                cache.begin(candidates.len());
                let mut scratch = AscentScratch::default();
                let (i, score) = ascend(
                    &acq,
                    &gp,
                    &candidates,
                    &lattice,
                    &mut cache,
                    &mut scratch,
                    start,
                    4.0,
                );
                let at = |j: usize, cache: &mut SweepCache| {
                    let (mu, sg) = cache.posterior(&gp, &candidates, j);
                    acq.score_from(mu, sg, 4.0)
                };
                assert!(
                    score >= at(start, &mut cache),
                    "{} descended from start {start}",
                    kind.name()
                );
                let mut nbrs = Vec::new();
                lattice.neighbors(i, &mut nbrs);
                for j in nbrs {
                    assert!(
                        at(j, &mut cache) <= score,
                        "{} stopped below neighbour {j} from start {start}",
                        kind.name()
                    );
                }
                assert!(
                    cache.evals() < candidates.len(),
                    "{}: ascent touched the whole grid",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn nominate_with_plan_matches_full_scan_for_every_member() {
        // EI/PI surfaces have near-zero plateaus at training points that
        // block single-start greedy ascent — the multi-start + strided-scan
        // plan exists for exactly that. Under the production-shaped plan,
        // every portfolio member must recover the full-scan argmax.
        let gp = toy_gp();
        let candidates = grid(21);
        let lattice = LineLattice::new(candidates.len());
        let starts = [0usize, candidates.len() / 2, candidates.len() - 1];
        let plan = AscentPlan {
            starts: &starts,
            scan_stride: Some(4),
        };
        for kind in AcquisitionKind::portfolio() {
            let acq = Acquisition::with_defaults(kind);
            let full = acq.argmax(&gp, &candidates, 4.0);
            let mut cache = SweepCache::new();
            cache.begin(candidates.len());
            let mut scratch = AscentScratch::default();
            let i = nominate(
                &acq,
                &gp,
                &candidates,
                &lattice,
                &plan,
                &mut cache,
                &mut scratch,
                4.0,
            );
            assert_eq!(i, full, "{}", kind.name());
        }
    }

    #[test]
    fn strided_scan_recovers_far_basin() {
        // A surface whose acquisition argmax is far from every start:
        // starts pinned at 0, strided scan must still find the peak.
        let gp = toy_gp();
        let candidates = grid(41);
        let lattice = LineLattice::new(candidates.len());
        let acq = Acquisition::with_defaults(AcquisitionKind::UpperConfidenceBound);
        let full = acq.argmax(&gp, &candidates, 4.0);
        let mut cache = SweepCache::new();
        cache.begin(candidates.len());
        let mut scratch = AscentScratch::default();
        let starts = [0usize];
        let plan = AscentPlan {
            starts: &starts,
            scan_stride: Some(4),
        };
        let i = nominate(
            &acq,
            &gp,
            &candidates,
            &lattice,
            &plan,
            &mut cache,
            &mut scratch,
            4.0,
        );
        assert_eq!(i, full);
    }

    #[test]
    fn out_of_range_start_is_clamped() {
        let gp = toy_gp();
        let candidates = grid(11);
        let lattice = LineLattice::new(candidates.len());
        let acq = Acquisition::with_defaults(AcquisitionKind::ExpectedImprovement);
        let mut cache = SweepCache::new();
        cache.begin(candidates.len());
        let mut scratch = AscentScratch::default();
        let (i, _) = ascend(
            &acq,
            &gp,
            &candidates,
            &lattice,
            &mut cache,
            &mut scratch,
            999,
            4.0,
        );
        assert!(i < candidates.len());
    }
}
