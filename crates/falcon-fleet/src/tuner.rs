//! The tuner registry: the one place a tuner spelling is parsed, named and
//! constructed. The CLI, scenario files, both campaign engines and the
//! experiment suite all go through [`FleetTuner`], so a name builds the
//! same tuner in whichever harness runs it. README §"Tuner names" is the
//! user-facing table of [`FleetTuner::names`].

use falcon_baselines::{GlobusTuner, HarpHistory, HarpTuner};
use falcon_core::{FalconAgent, SearchBounds, TransferSettings};
use falcon_rl::RlKind;
use falcon_transfer::dataset::Dataset;
use falcon_transfer::runner::{FixedTuner, Tuner};

/// A registry entry: one tuner family member, parsed from and printed as
/// its spelling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetTuner {
    /// Falcon gradient descent (the paper's shared-network choice).
    GradientDescent,
    /// Falcon hill climbing.
    HillClimbing,
    /// Falcon Bayesian optimization.
    Bayesian,
    /// Falcon_MP: conjugate gradient over (cc, p, pp) with the Eq 7
    /// utility.
    MultiParameter,
    /// A learning-based tuner from `falcon-rl`.
    Rl(RlKind),
    /// The Globus static heuristic.
    Globus,
    /// HARP on the 10G production corpus (`harp`), or on a corpus that
    /// extrapolates to the given Gbps (`harp:<gbps>`).
    Harp(Option<f64>),
    /// HARP with runtime re-tuning every 4 intervals.
    HarpRt,
    /// No tuning: fixed concurrency ≥ 1 (ablation baseline).
    Fixed(u32),
}

/// What an entry constructs: the Falcon family are bare agents (the CLI's
/// `loopback` loop holds one directly), the baselines are opaque tuners.
enum Built {
    Agent(FalconAgent),
    Baseline(Box<dyn Tuner>),
}

impl FleetTuner {
    /// The entries without a parameter; with `rl:warm:<gbps>`,
    /// `harp:<gbps>` and `fixed:<cc>` they are the whole registry.
    const PLAIN: [FleetTuner; 10] = [
        FleetTuner::GradientDescent,
        FleetTuner::HillClimbing,
        FleetTuner::Bayesian,
        FleetTuner::MultiParameter,
        FleetTuner::Rl(RlKind::Bandit),
        FleetTuner::Rl(RlKind::Q),
        FleetTuner::Rl(RlKind::Warm(None)),
        FleetTuner::Globus,
        FleetTuner::Harp(None),
        FleetTuner::HarpRt,
    ];

    /// Every spelling [`FleetTuner::from_name`] accepts, in documentation
    /// order; `<gbps>` is a positive number and `<cc>` an integer ≥ 1.
    pub fn names() -> Vec<String> {
        let plain = FleetTuner::PLAIN.iter().map(|t| t.name());
        plain
            .chain(["rl:warm:<gbps>", "harp:<gbps>", "fixed:<cc>"].map(String::from))
            .collect()
    }

    /// Parse a spelling; `None` for anything outside [`FleetTuner::names`]
    /// (including `fixed:0` and non-positive corpus capacities).
    pub fn from_name(s: &str) -> Option<FleetTuner> {
        if let Some(cc) = s.strip_prefix("fixed:") {
            let cc: u32 = cc.parse().ok()?;
            return (cc >= 1).then_some(FleetTuner::Fixed(cc));
        }
        let gbps = |g: &str| g.parse().ok().filter(|g: &f64| g.is_finite() && *g > 0.0);
        if let Some(g) = s.strip_prefix("rl:warm:") {
            return gbps(g).map(|g| FleetTuner::Rl(RlKind::Warm(Some(g))));
        }
        if let Some(g) = s.strip_prefix("harp:") {
            return gbps(g).map(|g| FleetTuner::Harp(Some(g)));
        }
        FleetTuner::PLAIN.into_iter().find(|t| t.name() == s)
    }

    /// [`FleetTuner::from_name`] with the workspace's one unknown-tuner
    /// message, listing every spelling.
    pub fn parse(s: &str) -> Result<FleetTuner, String> {
        FleetTuner::from_name(s).ok_or_else(|| {
            let names = FleetTuner::names().join("|");
            format!("unknown tuner {s:?} (expected {names})")
        })
    }

    /// The spelling — the one place each is written, so
    /// `from_name(t.name()) == Some(t)`; also a `fixed:<cc>` tuner's label.
    pub fn name(self) -> String {
        match self {
            FleetTuner::GradientDescent => "falcon-gd".to_string(),
            FleetTuner::HillClimbing => "falcon-hc".to_string(),
            FleetTuner::Bayesian => "falcon-bo".to_string(),
            FleetTuner::MultiParameter => "falcon-mp".to_string(),
            FleetTuner::Rl(RlKind::Bandit) => "rl:bandit".to_string(),
            FleetTuner::Rl(RlKind::Q) => "rl:q".to_string(),
            FleetTuner::Rl(RlKind::Warm(None)) => "rl:warm".to_string(),
            FleetTuner::Rl(RlKind::Warm(Some(gbps))) => format!("rl:warm:{gbps}"),
            FleetTuner::Globus => "globus".to_string(),
            FleetTuner::Harp(None) => "harp".to_string(),
            FleetTuner::Harp(Some(gbps)) => format!("harp:{gbps}"),
            FleetTuner::HarpRt => "harp-rt".to_string(),
            FleetTuner::Fixed(cc) => format!("fixed:{cc}"),
        }
    }

    fn build(self, max_cc: u32, seed: u64) -> Built {
        let harp = |gbps: Option<f64>| {
            HarpTuner::new(
                gbps.map_or_else(HarpHistory::ten_gig_corpus, HarpHistory::for_capacity_gbps),
            )
        };
        match self {
            FleetTuner::GradientDescent => Built::Agent(FalconAgent::gradient_descent(max_cc)),
            FleetTuner::HillClimbing => Built::Agent(FalconAgent::hill_climbing(max_cc)),
            FleetTuner::Bayesian => Built::Agent(FalconAgent::bayesian(max_cc, seed)),
            FleetTuner::MultiParameter => Built::Agent(FalconAgent::multi_parameter(
                SearchBounds::multi_parameter(max_cc, 8, 32),
            )),
            FleetTuner::Rl(kind) => Built::Agent(kind.agent(max_cc, seed)),
            FleetTuner::Globus => Built::Baseline(Box::new(GlobusTuner::for_dataset(
                &Dataset::uniform_1gb(1000),
            ))),
            FleetTuner::Harp(gbps) => Built::Baseline(Box::new(harp(gbps))),
            FleetTuner::HarpRt => Built::Baseline(Box::new(harp(None).with_runtime_retuning(4))),
            FleetTuner::Fixed(cc) => Built::Baseline(Box::new(FixedTuner {
                settings: TransferSettings::with_concurrency(cc),
                name: self.name(),
            })),
        }
    }

    /// Build one transfer's tuner.
    pub fn make(self, max_cc: u32, seed: u64) -> Box<dyn Tuner> {
        match self.build(max_cc, seed) {
            Built::Agent(agent) => Box::new(agent),
            Built::Baseline(tuner) => tuner,
        }
    }

    /// The Falcon-family entries (GD/HC/BO/MP and `rl:*`) as a bare agent;
    /// `None` for the baselines, which have no utility or optimizer.
    pub fn agent(self, max_cc: u32, seed: u64) -> Option<FalconAgent> {
        match self.build(max_cc, seed) {
            Built::Agent(agent) => Some(agent),
            Built::Baseline(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_core::ProbeMetrics;

    /// What each entry *does* once built is the root proptest
    /// `every_registry_tuner_conforms_on_hostile_probe_streams`.
    #[test]
    fn registry_conformance() {
        let err = FleetTuner::parse("skynet").unwrap_err();
        for spelling in FleetTuner::names() {
            assert!(err.contains(&spelling), "{spelling} missing from {err:?}");
            let name = spelling.replace("<cc>", "8").replace("<gbps>", "20");
            let t = FleetTuner::from_name(&name).unwrap_or_else(|| panic!("{name} not parsed"));
            assert_eq!(t.name(), name);
            assert_eq!(FleetTuner::from_name(&t.name()), Some(t));
        }
        for bad in [
            "skynet",
            "rl:sarsa",
            "fixd:2",
            "fixed:0",
            "fixed:",
            "fixed:-1",
            "harp:0",
            "harp:nan",
            "harp:",
            "rl:warm:0",
            "rl:warm:nan",
            "rl:warm:",
            "",
        ] {
            assert_eq!(FleetTuner::from_name(bad), None, "{bad:?}");
        }
    }

    /// The warm-start corpus is part of the spelling: `rl:warm` is the 11
    /// Gbps production corpus, so it decides exactly as `rl:warm:11`, and a
    /// 1 Gbps corpus opens elsewhere.
    #[test]
    fn warm_corpus_is_set_by_the_spelling() {
        let decisions = |name: &str| {
            let mut t = FleetTuner::from_name(name)
                .expect("registry spelling")
                .make(32, 9);
            let mut s = t.initial();
            let mut seen = vec![s];
            for k in 0..20 {
                let thr = 80.0 * f64::from(s.concurrency.min(12)) * (1.0 + 0.01 * f64::from(k % 5));
                s = t.on_sample(&ProbeMetrics::from_aggregate(s, thr, 0.0, 5.0));
                seen.push(s);
            }
            seen
        };
        assert_eq!(decisions("rl:warm"), decisions("rl:warm:11"));
        assert_ne!(decisions("rl:warm"), decisions("rl:warm:1"));
    }

    #[test]
    fn readme_table_lists_every_name() {
        let readme = include_str!("../../../README.md");
        let table = readme
            .split("### Tuner names")
            .nth(1)
            .expect("README has a `### Tuner names` section");
        let table = table.split("\n#").next().unwrap_or(table);
        for name in FleetTuner::names() {
            assert!(
                table.contains(&format!("| `{name}`")),
                "README tuner table lacks a `{name}` row"
            );
        }
    }
}
