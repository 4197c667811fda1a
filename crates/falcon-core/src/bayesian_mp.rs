//! Multi-parameter Bayesian Optimization over (concurrency, parallelism).
//!
//! §4.6 of the paper singles out multi-parameter BO as the dangerous case:
//! "if maximum values of concurrency and parallelism are defined as 32 for
//! both parameters, then BO may probe a transfer setting \[with\] 1,024
//! network connections". This module is the candidate space of that search
//! — the 2-D integer grid, searched by [`crate::bayesian::BayesianSearch`]
//! under the Eq 7 utility — together with the paper's proposed mitigation:
//! a cap on the *total connections* (`cc × p`) any candidate may create,
//! which trims the aggressive corner out of the candidate set without
//! shrinking either axis.
//!
//! Pipelining is left to the harness default here: its utility surface is
//! monotone (commands are nearly free), so grid-searching it wastes probes;
//! the conjugate-gradient optimizer (`crate::conjugate`) covers full 3-D
//! tuning.

use rand::rngs::StdRng;
use rand::Rng;

use falcon_gp::{Lattice, Points};

use crate::bayesian::{BayesianSearch, Space};
use crate::settings::{SearchBounds, TransferSettings};
use crate::vec_bytes;

/// 4-neighbour lattice over the (possibly connection-capped) candidate
/// grid: candidate `i` neighbours the candidates one concurrency or one
/// parallelism step away *that survived the cap filter*. Neighbour lists
/// are precomputed once (the grid is fixed for the optimizer's lifetime)
/// through a dense `(cc, p) → index` table — no hashing, deterministic —
/// and stored back to back: candidate `i`'s are
/// `nbrs[starts[i]..starts[i + 1]]`. Indices and offsets are `u32`: the
/// dense table would exhaust memory long before a grid had 2³² cells.
pub struct GridLattice {
    nbrs: Vec<u32>,
    starts: Vec<u32>,
    /// Dense `(cc - cc_lo) * p_span + (p - p_lo) → candidate index` table
    /// (`u32::MAX` = filtered out), kept for incumbent lookups.
    index: Vec<u32>,
    cc_lo: u32,
    p_lo: u32,
    cc_span: usize,
    p_span: usize,
}

impl GridLattice {
    fn new(candidates: &[TransferSettings], bounds: &SearchBounds) -> Self {
        let (cc_lo, cc_hi) = bounds.concurrency;
        let (p_lo, p_hi) = bounds.parallelism;
        let cc_span = (cc_hi - cc_lo + 1) as usize;
        let p_span = (p_hi - p_lo + 1) as usize;
        let mut index = vec![u32::MAX; cc_span * p_span];
        for (i, s) in (0u32..).zip(candidates) {
            let cell = (s.concurrency - cc_lo) as usize * p_span + (s.parallelism - p_lo) as usize;
            index[cell] = i;
        }
        let lookup = |cc: i64, p: i64| -> Option<u32> {
            if cc < i64::from(cc_lo)
                || cc > i64::from(cc_hi)
                || p < i64::from(p_lo)
                || p > i64::from(p_hi)
            {
                return None;
            }
            let cell = (cc - i64::from(cc_lo)) as usize * p_span + (p - i64::from(p_lo)) as usize;
            (index[cell] != u32::MAX).then_some(index[cell])
        };
        let mut nbrs = Vec::new();
        let mut starts = Vec::with_capacity(candidates.len() + 1);
        starts.push(0);
        for s in candidates {
            let (cc, p) = (i64::from(s.concurrency), i64::from(s.parallelism));
            let adjacent = [(cc - 1, p), (cc + 1, p), (cc, p - 1), (cc, p + 1)];
            nbrs.extend(adjacent.into_iter().filter_map(|(c, q)| lookup(c, q)));
            starts.push(nbrs.len() as u32);
        }
        nbrs.shrink_to_fit();
        GridLattice {
            nbrs,
            starts,
            index,
            cc_lo,
            p_lo,
            cc_span,
            p_span,
        }
    }

    /// Candidate index of a (possibly out-of-grid) setting, if it survived
    /// the cap filter.
    fn index_of(&self, s: TransferSettings) -> Option<usize> {
        let cc = (s.concurrency.checked_sub(self.cc_lo)?) as usize;
        let p = (s.parallelism.checked_sub(self.p_lo)?) as usize;
        if cc >= self.cc_span || p >= self.p_span {
            return None;
        }
        let i = self.index[cc * self.p_span + p];
        (i != u32::MAX).then_some(i as usize)
    }
}

impl Lattice for GridLattice {
    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    fn neighbors(&self, idx: usize, out: &mut Vec<usize>) {
        let (from, to) = (self.starts[idx] as usize, self.starts[idx + 1] as usize);
        out.extend(self.nbrs[from..to].iter().map(|&j| j as usize));
    }
}

/// Parameters of the 2-D Bayesian search.
#[derive(Debug, Clone, Copy)]
pub struct BoMpParams {
    /// Search bounds; the concurrency and parallelism ranges define the
    /// grid (pipelining is pinned to its lower bound).
    pub bounds: SearchBounds,
    /// Maximum `cc × p` a candidate may create (`None` = unrestricted, the
    /// paper's 1,024-connection hazard).
    pub max_total_connections: Option<u32>,
    /// RNG seed.
    pub seed: u64,
}

impl BoMpParams {
    /// Defaults mirroring the 1-D search (3 random probes, 20-obs window).
    pub fn new(max_cc: u32, max_p: u32) -> Self {
        BoMpParams {
            bounds: SearchBounds::multi_parameter(max_cc, max_p, 1),
            max_total_connections: None,
            seed: 0x0fa1c02,
        }
    }

    /// Cap candidates at `max` total connections (builder style).
    pub fn with_connection_cap(mut self, max: u32) -> Self {
        self.max_total_connections = Some(max.max(1));
        self
    }

    /// Override the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The `(cc, p)` grid minus the candidates over the connection cap: 2-D GP
/// inputs, fixed for the optimizer's lifetime.
pub struct GridSpace {
    /// The candidates, stored once, as GP query points: flat, `(cc, p)`
    /// each.
    points: Vec<f64>,
    /// The pipelining every candidate runs.
    pipelining: u32,
    /// Neighbourhood structure + index table over the grid.
    lattice: GridLattice,
}

impl GridSpace {
    fn new(params: &BoMpParams) -> Self {
        let (cc_lo, cc_hi) = params.bounds.concurrency;
        let (p_lo, p_hi) = params.bounds.parallelism;
        let pp = params.bounds.pipelining.0;
        let mut candidates = Vec::new();
        for cc in cc_lo..=cc_hi {
            for p in p_lo..=p_hi {
                let s = TransferSettings {
                    concurrency: cc,
                    parallelism: p,
                    pipelining: pp,
                };
                if params
                    .max_total_connections
                    .is_none_or(|cap| s.total_connections() <= cap)
                {
                    candidates.push(s);
                }
            }
        }
        // falcon-lint::allow(panic-safety, reason = "constructor validation; with_connection_cap floors the cap at 1 so (1,1) always qualifies")
        assert!(
            !candidates.is_empty(),
            "connection cap excludes every candidate"
        );
        let mut points = Vec::with_capacity(candidates.len() * Self::DIM);
        for &s in &candidates {
            Self::push_input(s, &mut points);
        }
        GridSpace {
            points,
            pipelining: pp,
            lattice: GridLattice::new(&candidates, &params.bounds),
        }
    }

    fn len(&self) -> usize {
        self.points.len() / Self::DIM
    }
}

impl Space for GridSpace {
    type Lattice = GridLattice;

    const NAME: &'static str = "bayesian-optimization-mp";

    const DIM: usize = 2;

    fn points(&self) -> Points<'_> {
        Points::new(&self.points, Self::DIM)
    }

    fn lattice(&self) -> &GridLattice {
        &self.lattice
    }

    fn push_input(s: TransferSettings, out: &mut Vec<f64>) {
        out.extend([f64::from(s.concurrency), f64::from(s.parallelism)]);
    }

    /// The coordinates are the grid's integers, so the casts are exact.
    fn setting(&self, idx: usize) -> TransferSettings {
        TransferSettings {
            concurrency: self.points[idx * Self::DIM] as u32,
            parallelism: self.points[idx * Self::DIM + 1] as u32,
            pipelining: self.pipelining,
        }
    }

    /// `x` is an observed `(cc, p)`, so the casts are exact; the lattice
    /// reads nothing else.
    fn index_of(&self, x: &[f64]) -> Option<usize> {
        self.lattice.index_of(TransferSettings {
            concurrency: x[0] as u32,
            parallelism: x[1] as u32,
            pipelining: 1,
        })
    }

    fn draw(&self, rng: &mut StdRng) -> TransferSettings {
        self.setting(rng.gen_range(0..self.len()))
    }

    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.points)
            + vec_bytes(&self.lattice.nbrs)
            + vec_bytes(&self.lattice.starts)
            + vec_bytes(&self.lattice.index)
    }
}

/// 2-D Bayesian optimizer over (concurrency, parallelism).
pub type BayesianMpOptimizer = BayesianSearch<GridSpace>;

impl BayesianMpOptimizer {
    /// New search over the candidate grid.
    pub fn new(params: BoMpParams) -> Self {
        BayesianSearch::over(GridSpace::new(&params), params.seed)
    }

    /// Number of candidate settings in the (possibly capped) grid.
    pub fn grid_size(&self) -> usize {
        self.space.len()
    }

    /// Largest total connection count any candidate can create.
    pub fn max_candidate_connections(&self) -> u32 {
        (0..self.space.len())
            .map(|i| self.space.setting(i).total_connections())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::drive_with;
    use crate::utility::UtilityFunction;

    /// The settings visited on a 2-D landscape under Eq 7.
    fn drive(
        opt: &mut BayesianMpOptimizer,
        f: impl Fn(TransferSettings) -> f64,
        probes: usize,
    ) -> Vec<TransferSettings> {
        let eq7 = UtilityFunction::falcon_multi_param();
        drive_with(opt, eq7, f, probes, |_, s| s)
    }

    /// Disk-limited landscape: parallelism splits the per-process budget
    /// (no gain), ~10 processes saturate.
    fn disk_limited(s: TransferSettings) -> f64 {
        f64::from(s.concurrency) * 100.0f64.min(1000.0 / f64::from(s.concurrency))
    }

    /// Per-flow-limited WAN: each socket carries ≤ 50 Mbps, the path caps
    /// at 1.6 Gbps — parallelism genuinely helps here.
    fn flow_limited(s: TransferSettings) -> f64 {
        (f64::from(s.total_connections()) * 50.0).min(1600.0)
    }

    #[test]
    fn grid_respects_connection_cap() {
        let free = BayesianMpOptimizer::new(BoMpParams::new(32, 32));
        assert_eq!(free.grid_size(), 32 * 32);
        assert_eq!(free.max_candidate_connections(), 1024);

        let capped = BayesianMpOptimizer::new(BoMpParams::new(32, 32).with_connection_cap(64));
        assert!(capped.grid_size() < 32 * 32);
        assert!(capped.max_candidate_connections() <= 64);
    }

    #[test]
    fn probes_stay_inside_cap() {
        let mut opt =
            BayesianMpOptimizer::new(BoMpParams::new(16, 8).with_connection_cap(24).with_seed(3));
        let trace = drive(&mut opt, flow_limited, 30);
        assert!(
            trace.iter().all(|s| s.total_connections() <= 24),
            "{trace:?}"
        );
    }

    #[test]
    fn finds_low_parallelism_when_disk_limited() {
        let mut opt = BayesianMpOptimizer::new(BoMpParams::new(24, 8).with_seed(5));
        let trace = drive(&mut opt, disk_limited, 50);
        // Eq 7 penalizes total connections: with no benefit from
        // parallelism, the tail should mostly sit at p ≤ 2.
        let tail = &trace[30..];
        let low_p = tail.iter().filter(|s| s.parallelism <= 2).count();
        assert!(low_p * 3 > tail.len() * 2, "tail: {tail:?}");
    }

    #[test]
    fn uses_parallelism_when_flows_are_capped() {
        let mut opt = BayesianMpOptimizer::new(BoMpParams::new(16, 8).with_seed(7));
        let trace = drive(&mut opt, flow_limited, 50);
        // Saturating 1.6 Gbps needs 32 connections; a concurrency of 16
        // alone cannot do it, so good candidates multiply the axes.
        let tail = &trace[30..];
        let productive = tail.iter().filter(|s| s.total_connections() >= 24).count();
        assert!(productive * 2 > tail.len(), "tail: {tail:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut opt = BayesianMpOptimizer::new(BoMpParams::new(16, 4).with_seed(seed));
            drive(&mut opt, flow_limited, 20)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn tightest_cap_still_leaves_single_connection_candidate() {
        // `with_connection_cap` floors at 1, and (cc=1, p=1) always
        // qualifies, so the grid can never be empty through the public API.
        let opt = BayesianMpOptimizer::new(BoMpParams::new(8, 8).with_connection_cap(0));
        assert_eq!(opt.grid_size(), 1);
        assert_eq!(opt.max_candidate_connections(), 1);
    }

    #[test]
    fn window_bounded() {
        let mut opt = BayesianMpOptimizer::new(BoMpParams::new(16, 4));
        drive(&mut opt, flow_limited, 40);
        assert!(opt.window_len() <= 20);
    }
}
