//! Declarative experiment scenarios.
//!
//! `falcon scenario <file>` runs a custom competing-transfers experiment
//! described in a small INI-style file — the mechanism for reproducing any
//! of the paper's multi-agent setups (or your own) without writing Rust:
//!
//! ```text
//! # two Falcon agents against HARP on a 40G WAN
//! env = stampede2-comet
//! duration = 500
//! seed = 7
//!
//! [agent]
//! tuner = harp
//! start = 0
//!
//! [agent]
//! tuner = falcon-gd
//! start = 120
//!
//! [background]
//! start = 200
//! end = 400
//! mbps = 5000
//! connections = 10
//!
//! # the bottleneck drops to 30% capacity at 250 s and recovers at 350 s
//! [event]
//! at = 250
//! action = link_capacity
//! factor = 0.3
//!
//! [event]
//! at = 350
//! action = link_capacity
//! factor = 1.0
//! ```
//!
//! Comments start with `#`; keys are `key = value`. Top-level keys come
//! first; then `[agent]`, `[background]` and `[event]` open repeated
//! sections, or a single `[fleet]` generates the whole workload instead
//! (see [`falcon_fleet`]; with `topology =` it runs on the scale engine).
//! README §"Scenario keys" is the table of every key: its section, its
//! value and where it applies.
//!
//! In this file one table per section declares each key once — its name,
//! its value kind, and which engine reads it — and a second table lists the
//! `[event]` actions, each as the [`EventAction`] whose fields are the keys
//! it reads. Parsing, the range checks, the "unknown key" and "not read
//! here" errors, [`serialize`] and [`keys`] all read those tables, so a key
//! that nothing reads is a parse error at its line. The checks that relate
//! two keys are written out by hand: a section's time window (`[agent]`
//! `start`/`leave`, `[background]` `start`/`end`, `[event]` `at`, all before
//! `duration`), `resource` against the env, kill/revive `agent` against the
//! `[agent]` sections, and the scale engine's tuner set.

use std::fmt::Display;
use std::mem::discriminant;
use std::slice;
use std::str::FromStr;

use falcon_fleet::{
    CampaignSpec, FleetReport, FleetTopology, FleetTuner, ScaleCampaignSpec, ScaleReport,
    ScaleTopology, ScaleWorkload, Workload,
};
use falcon_sim::EventAction::{
    DiskThrottleFactor, KillAgent, LinkCapacityFactor, LossFloor, ReviveAgent, RttShift,
};
use falcon_sim::{BackgroundFlow, EnvironmentEvent, EventAction, Simulation};
use falcon_trace::{TraceEvent, TraceLog, Tracer};
use falcon_transfer::dataset::{Dataset, GIB};
use falcon_transfer::harness::SimHarness;
use falcon_transfer::runner::{AgentPlan, RunTrace, Runner, Tuner};

use crate::args::{self, ParseError};
use crate::run::resolve_env;
use Kind::*;
use Use::*;

/// One agent line of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentSpec {
    /// Tuner: any registry spelling (README §"Tuner names").
    pub tuner: String,
    /// Join time (seconds).
    pub start_s: f64,
    /// Optional scripted departure.
    pub leave_s: Option<f64>,
    /// Dataset name (`1gb:<count>`, `small`, `large`, `mixed`).
    pub dataset: String,
}

impl Default for AgentSpec {
    fn default() -> Self {
        AgentSpec {
            tuner: "falcon-gd".into(),
            start_s: 0.0,
            leave_s: None,
            dataset: "1gb:1000000".into(),
        }
    }
}

/// The `[fleet]` section: a routed multi-bottleneck campaign
/// ([`falcon_fleet`]) instead of hand-listed `[agent]` transfers. A
/// scenario with a `[fleet]` has no `[agent]`, `[background]` or `[event]`
/// section and no top-level `env` (parse errors); `duration` and `seed`
/// still apply.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Classic engine only: backbone link capacities in Mbps
    /// (`links = 1000, 1600, 2500`).
    pub links_mbps: Vec<f64>,
    /// Churning arrivals beyond the per-route anchors.
    pub transfers: usize,
    /// Mean arrival rate (per minute).
    pub arrivals_per_min: f64,
    /// Mean churn file size (MB).
    pub mean_file_mb: f64,
    /// Classic engine only: per-route anchor transfer size (GB); 0
    /// disables anchors.
    pub anchor_gb: f64,
    /// Tuner for every transfer: any registry spelling (README §"Tuner
    /// names"); with `topology` set, only `fixed:<cc>` and `rl:*`.
    pub tuner: String,
    /// Generated-fabric spec (`fat-tree:<k>[:local]`,
    /// `dumbbell:<pairs>x<classes>`, `dtn:<hubs>x<spokes>`). When set the
    /// scenario runs on the scale engine
    /// ([`falcon_fleet::run_scale_campaign`]) instead of the classic
    /// runner-driven campaign.
    pub topology: Option<String>,
    /// Scale engine only: diurnal arrival-rate amplitude in `[0, 1)`.
    pub diurnal: f64,
    /// Scale engine only: correlated link-failure waves over the run.
    pub failures: usize,
    /// Scale engine only: tenant-churn groups (1 disables churn).
    pub tenants: u32,
    /// Scale engine only: campaign shard count (clamped to the number of
    /// independent route components at run time).
    pub shards: u32,
}

impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec {
            links_mbps: vec![1000.0, 1600.0, 2500.0],
            transfers: 200,
            arrivals_per_min: 24.0,
            mean_file_mb: 500.0,
            anchor_gb: 40.0,
            tuner: "falcon-gd".into(),
            topology: None,
            diurnal: 0.0,
            failures: 0,
            tenants: 1,
            shards: 8,
        }
    }
}

/// A parsed scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Environment preset name.
    pub env: String,
    /// Experiment duration (seconds).
    pub duration_s: f64,
    /// RNG seed.
    pub seed: u64,
    /// Optional path for the full trace CSV (not on a scale fleet, which
    /// keeps no per-agent trace).
    pub trace_path: Option<String>,
    /// Transfer tasks.
    pub agents: Vec<AgentSpec>,
    /// Scripted cross traffic.
    pub background: Vec<BackgroundFlow>,
    /// Scripted environment faults/changes.
    pub events: Vec<EnvironmentEvent>,
    /// Fleet campaign configuration, when the scenario has a `[fleet]`
    /// section.
    pub fleet: Option<FleetSpec>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            env: "xsede".into(),
            duration_s: 300.0,
            seed: 42,
            trace_path: None,
            agents: Vec::new(),
            background: Vec::new(),
            events: Vec::new(),
            fleet: None,
        }
    }
}

/// What a key's value must be.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// Finite and > 0.
    Positive,
    /// Finite and >= 0.
    NonNegative,
    /// In `[0, 1)`.
    Fraction,
    /// > 0, or `inf` for no end.
    PositiveOrInf,
    /// A whole number, parsed by the field's own integer type: counts and
    /// indices never go through `f64`, which would round above 2^53 and
    /// turn `-1`, `1.5` and `nan` into 0 or 1.
    Whole,
    /// A whole number >= 1.
    AtLeastOne,
    /// A whole number naming an `[agent]` section that has started by the
    /// event's `at`; checked once every section is read.
    AgentIndex,
    /// A whole number below the env's resource count.
    ResourceIndex,
    /// A tuner registry spelling (README §"Tuner names").
    TunerName,
    /// `1gb:<count>`, `small`, `large` or `mixed`.
    DatasetName,
    /// An environment preset (`falcon envs`).
    EnvName,
    /// A scale-engine fabric spec.
    TopologySpec,
    /// 1 to 64 comma-separated capacities, each finite and > 0.
    LinkList,
    /// An `[event]` action name: it picks which of the section's keys are
    /// read.
    ActionName,
    /// Any text.
    Text,
}

impl Kind {
    /// Check `raw` as the value of `key` in a scenario on `env` (top-level
    /// keys come before every section); the error follows the line number.
    fn check(self, key: &str, raw: &str, env: &str) -> Result<(), String> {
        let ranged = |ok: fn(f64) -> bool, want: &str| {
            args::ranged(key, raw, ok, want).map(drop).map_err(|e| e.0)
        };
        let resources = || resolve_env(env).map_or(0, |env| env.resources.len());
        match self {
            Positive => ranged(|x| x > 0.0, "finite and > 0"),
            NonNegative => ranged(|x| x >= 0.0, "finite and >= 0"),
            Fraction => ranged(|x| (0.0..1.0).contains(&x), "in [0, 1)"),
            PositiveOrInf if !raw.parse().is_ok_and(|x: f64| x > 0.0) => {
                Err(format!("{key}: must be > 0 or inf, got {raw:?}"))
            }
            AtLeastOne if raw.parse() == Ok(0u64) => {
                Err(format!("{key}: must be >= 1, got {raw:?}"))
            }
            ResourceIndex if raw.parse().is_ok_and(|r: usize| r >= resources()) => Err(format!(
                "{key}: env {env} has resources 0..{}, got {raw}",
                resources()
            )),
            TunerName => FleetTuner::parse(raw).map(drop),
            DatasetName => dataset_ctor(raw).map(drop),
            EnvName if resolve_env(raw).is_none() => Err(format!("unknown environment {raw:?}")),
            TopologySpec if ScaleTopology::from_spec(raw).is_none() => Err(format!(
                "{key}: {raw:?} is not fat-tree:<k>[:local] | dumbbell:<pairs>x<classes> | \
                 dtn:<hubs>x<spokes>"
            )),
            LinkList if links(raw).is_none() => Err(format!(
                "{key}: need 1..=64 finite capacities > 0, got {raw:?}"
            )),
            ActionName if action(raw).is_none() => Err(format!(
                "unknown event action {raw:?} (expected {})",
                ACTIONS.map(|(name, _)| name).join("|")
            )),
            _ => Ok(()),
        }
    }
}

/// `links =` capacities, if there are 1 to 64 and each is finite and > 0.
fn links(raw: &str) -> Option<Vec<f64>> {
    let cap = |c: &str| args::ranged("", c.trim(), |c| c > 0.0, "").ok();
    let caps: Option<Vec<f64>> = raw.split(',').map(cap).collect();
    caps.filter(|c| (1..=64).contains(&c.len()))
}

/// Which runs read a key. `scale` names the run: `None` for `[agent]`
/// sections, else a `[fleet]`, on the scale engine if `true`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Use {
    /// Read wherever its section is.
    Any,
    /// Read wherever its section is, and the section needs it.
    Required,
    /// Not next to a `[fleet]`: the fleet engines build their own links.
    NoFleet,
    /// Not on the scale engine, which keeps no per-agent trace.
    NoScale,
    /// Only by the classic fleet engine, which builds its links from it.
    Classic,
    /// Only by the scale engine.
    Scale,
}

impl Use {
    /// Why the run `scale` names does not read the key, if it does not.
    fn unread(self, scale: Option<bool>) -> Option<&'static str> {
        match (self, scale) {
            (NoFleet, Some(_)) => Some("a [fleet] builds its own links, from links or topology"),
            (NoScale, Some(true)) => Some("the scale engine keeps no per-agent trace to write"),
            (Classic, Some(true)) => Some("the scale engine builds its links from topology"),
            (Scale, None | Some(false)) => Some("a scale-engine key; the [fleet] has no topology"),
            _ => None,
        }
    }
}

/// A struct field that a key sets and [`serialize`] writes.
trait Field {
    /// Store `raw`, which the key's [`Kind`] has checked; `false` if it
    /// does not parse as the field's type (a whole-number kind leaves that
    /// check to the field).
    fn set(&mut self, raw: &str) -> bool;
    /// The value as the key spells it; `None` for an unset option.
    fn get(&self) -> Option<String>;
}

/// Field types that parse from and print as their INI spelling.
trait Scalar: FromStr + Display {}
impl Scalar for f64 {}
impl Scalar for u64 {}
impl Scalar for u32 {}
impl Scalar for usize {}
impl Scalar for String {}

impl<T: Scalar> Field for T {
    fn set(&mut self, raw: &str) -> bool {
        raw.parse().map(|v| *self = v).is_ok()
    }
    fn get(&self) -> Option<String> {
        Some(self.to_string())
    }
}

impl<T: Scalar> Field for Option<T> {
    fn set(&mut self, raw: &str) -> bool {
        raw.parse().map(|v| *self = Some(v)).is_ok()
    }
    fn get(&self) -> Option<String> {
        self.as_ref().map(T::to_string)
    }
}

impl Field for Vec<f64> {
    fn set(&mut self, raw: &str) -> bool {
        links(raw).map(|caps| *self = caps).is_some()
    }
    fn get(&self) -> Option<String> {
        let caps: Vec<String> = self.iter().map(f64::to_string).collect();
        Some(caps.join(", "))
    }
}

impl Field for EventAction {
    fn set(&mut self, raw: &str) -> bool {
        action(raw).map(|i| *self = ACTIONS[i].1).is_some()
    }
    fn get(&self) -> Option<String> {
        let same = |(_, a): &&(&str, EventAction)| discriminant(a) == discriminant(self);
        ACTIONS.iter().find(same).map(|(name, _)| name.to_string())
    }
}

/// One key of a section whose values live in a `T`: its name, its value
/// kind, which runs read it, and the field it sets and [`serialize`]
/// writes — `None` where `T` has none (an `[event]` action that does not
/// read the key).
struct Key<T: 'static>(&'static str, Kind, Use, Lens<T>);

type Lens<T> = fn(&mut T) -> Option<&mut dyn Field>;

/// A section's label and its keys, in the order [`serialize`] writes them.
type Table<T> = (&'static str, &'static [Key<T>]);

const TOP: Table<Scenario> = (
    "top level",
    &[
        Key("env", EnvName, NoFleet, |s| Some(&mut s.env)),
        Key("duration", Positive, Any, |s| Some(&mut s.duration_s)),
        Key("seed", Whole, Any, |s| Some(&mut s.seed)),
        Key("trace", Text, NoScale, |s| Some(&mut s.trace_path)),
    ],
);

const AGENT: Table<AgentSpec> = (
    "[agent]",
    &[
        Key("tuner", TunerName, Any, |a| Some(&mut a.tuner)),
        Key("start", NonNegative, Any, |a| Some(&mut a.start_s)),
        Key("leave", NonNegative, Any, |a| Some(&mut a.leave_s)),
        Key("dataset", DatasetName, Any, |a| Some(&mut a.dataset)),
    ],
);

const BACKGROUND: Table<BackgroundFlow> = (
    "[background]",
    &[
        Key("start", NonNegative, Any, |b| Some(&mut b.start_s)),
        Key("end", PositiveOrInf, Any, |b| Some(&mut b.end_s)),
        Key("mbps", Positive, Required, |b| Some(&mut b.demand_mbps)),
        Key("connections", AtLeastOne, Any, |b| Some(&mut b.connections)),
    ],
);

const EVENT: Table<EnvironmentEvent> = (
    "[event]",
    &[
        Key("at", NonNegative, Required, |e| Some(&mut e.at_s)),
        Key("action", ActionName, Required, |e| Some(&mut e.action)),
        Key("resource", ResourceIndex, Any, |e| match &mut e.action {
            LinkCapacityFactor { resource, .. } => Some(resource),
            _ => None,
        }),
        Key("factor", Positive, Required, |e| match &mut e.action {
            LinkCapacityFactor { factor, .. } | DiskThrottleFactor { factor } => Some(factor),
            _ => None,
        }),
        Key("rate", Fraction, Required, |e| match &mut e.action {
            LossFloor { rate } => Some(rate),
            _ => None,
        }),
        Key("rtt_s", Positive, Required, |e| match &mut e.action {
            RttShift { rtt_s } => Some(rtt_s),
            _ => None,
        }),
        Key("agent", AgentIndex, Required, |e| match &mut e.action {
            KillAgent { agent } | ReviveAgent { agent } => Some(agent),
            _ => None,
        }),
    ],
);

const FLEET: Table<FleetSpec> = (
    "[fleet]",
    &[
        Key("links", LinkList, Classic, |f| Some(&mut f.links_mbps)),
        Key("transfers", Whole, Any, |f| Some(&mut f.transfers)),
        Key("arrivals_per_min", Positive, Any, |f| {
            Some(&mut f.arrivals_per_min)
        }),
        Key("mean_file_mb", Positive, Any, |f| Some(&mut f.mean_file_mb)),
        Key("anchor_gb", NonNegative, Classic, |f| {
            Some(&mut f.anchor_gb)
        }),
        Key("tuner", TunerName, Any, |f| Some(&mut f.tuner)),
        Key("topology", TopologySpec, Any, |f| Some(&mut f.topology)),
        Key("diurnal", Fraction, Scale, |f| Some(&mut f.diurnal)),
        Key("failures", Whole, Scale, |f| Some(&mut f.failures)),
        Key("tenants", AtLeastOne, Scale, |f| Some(&mut f.tenants)),
        Key("shards", AtLeastOne, Scale, |f| Some(&mut f.shards)),
    ],
);

/// The `[event]` actions, each as the [`EventAction`] it builds: the keys
/// an action reads are the `EVENT` keys whose field that variant has.
const ACTIONS: [(&str, EventAction); 6] = [
    (
        "link_capacity",
        LinkCapacityFactor {
            resource: None,
            factor: 1.0,
        },
    ),
    ("loss_floor", LossFloor { rate: 0.0 }),
    ("disk_throttle", DiskThrottleFactor { factor: 1.0 }),
    ("rtt", RttShift { rtt_s: 0.0 }),
    ("kill", KillAgent { agent: 0 }),
    ("revive", ReviveAgent { agent: 0 }),
];

fn action(name: &str) -> Option<usize> {
    ACTIONS.iter().position(|(n, _)| *n == name)
}

/// Every `(section, key)` the tables declare, in the order [`serialize`]
/// writes them; README §"Scenario keys" documents each.
pub fn keys() -> Vec<(&'static str, &'static str)> {
    fn names<T>((label, keys): Table<T>) -> impl Iterator<Item = (&'static str, &'static str)> {
        keys.iter().map(move |k| (label, k.0))
    }
    let agents = names(AGENT).chain(names(BACKGROUND)).chain(names(EVENT));
    names(TOP).chain(agents).chain(names(FLEET)).collect()
}

/// The section being read, holding what its keys have set so far.
enum Section {
    Top,
    Agent(AgentSpec),
    Background(BackgroundFlow),
    /// One draft per action: a key sets every draft that reads it, and
    /// `action =` moves the draft it names to the front.
    Event([EnvironmentEvent; 6]),
    Fleet(FleetSpec),
}

/// A key as read: its line, name, kind and use.
type Seen = (usize, &'static str, Kind, Use);

fn err(line_no: usize, msg: String) -> ParseError {
    ParseError(format!("line {}: {msg}", line_no + 1))
}

/// Read `key = raw` into each of a section's `targets`, once the key's kind
/// has checked it.
fn apply<T>(
    (label, keys): Table<T>,
    targets: &mut [T],
    key: &str,
    raw: &str,
    env: &str,
) -> Result<(&'static str, Kind, Use), String> {
    let Some(&Key(name, kind, using, field)) = keys.iter().find(|k| k.0 == key) else {
        return Err(format!("unknown {label} key {key:?}"));
    };
    kind.check(key, raw, env)?;
    // `action =` picks one of an `[event]`'s drafts rather than setting it.
    for t in targets.iter_mut().filter(|_| kind != ActionName) {
        if field(t).is_some_and(|f| !f.set(raw)) {
            return Err(format!("{key}: expected a whole number, got {raw:?}"));
        }
    }
    Ok((name, kind, using))
}

/// The first `Required` key of the table that `t` reads and `seen` lacks.
fn require<T>((label, keys): Table<T>, t: &mut T, seen: &[Seen]) -> Result<(), String> {
    let missing = |k: &&Key<T>| k.2 == Required && !seen.iter().any(|s| s.1 == k.0);
    match keys.iter().filter(missing).find(|k| (k.3)(t).is_some()) {
        Some(k) => Err(format!("{label} requires {} =", k.0)),
        None => Ok(()),
    }
}

/// Add a finished section to `sc`, once it has every key it needs and, for
/// an `[event]`, its action reads every key it was given. A kill or revive
/// goes to `agent_refs` as (line, time, section): the sections it may name
/// are known only at the end.
fn close(
    sc: &mut Scenario,
    section: Section,
    (seen, header): (&[Seen], usize),
    agent_refs: &mut Vec<(usize, f64, usize)>,
) -> Result<(), ParseError> {
    let missing = |e| err(header, e);
    match section {
        Section::Top => {}
        Section::Agent(a) => sc.agents.push(a),
        Section::Background(mut b) => {
            require(BACKGROUND, &mut b, seen).map_err(missing)?;
            sc.background.push(b);
        }
        Section::Event([mut e, ..]) => {
            require(EVENT, &mut e, seen).map_err(missing)?;
            let act = e.action.get().unwrap_or_default();
            let reads: Vec<_> = EVENT.1.iter().filter(|k| (k.3)(&mut e).is_some()).collect();
            for &(line, name, kind, _) in seen {
                if !reads.iter().any(|k| k.0 == name) {
                    return Err(err(line, format!("{name}: action {act} does not read it")));
                }
                if let (AgentIndex, KillAgent { agent } | ReviveAgent { agent }) = (kind, e.action)
                {
                    agent_refs.push((line, e.at_s, agent));
                }
            }
            sc.events.push(e);
        }
        Section::Fleet(f) => sc.fleet = Some(f),
    }
    Ok(())
}

/// Parse a scenario file's contents.
pub fn parse(text: &str) -> Result<Scenario, ParseError> {
    let mut sc = Scenario::default();
    let mut section = Section::Top;
    // Every key read, in file order; the current section's start at `from`.
    let mut seen: Vec<Seen> = Vec::new();
    let (mut from, mut header) = (0, 0);
    let mut agent_refs = Vec::new();

    for (line_no, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let done = std::mem::replace(&mut section, Section::Top);
            let first = matches!(done, Section::Top);
            close(&mut sc, done, (&seen[from..], header), &mut agent_refs)?;
            // A fleet generates its own transfers on its own links, so it
            // would run no other section (a second `[fleet]` replaced it).
            let name = format!("[{}]", name.trim());
            if sc.fleet.is_some() || name == "[fleet]" && !first {
                let msg = format!("{name}: a scenario with a [fleet] has no other section");
                return Err(err(line_no, msg));
            }
            section = match name.as_str() {
                "[agent]" => Section::Agent(AgentSpec::default()),
                "[background]" => Section::Background(BackgroundFlow {
                    start_s: 0.0,
                    end_s: f64::INFINITY,
                    demand_mbps: 0.0,
                    connections: 1,
                }),
                "[event]" => Section::Event(ACTIONS.map(|(_, a)| EnvironmentEvent::at(0.0, a))),
                "[fleet]" => Section::Fleet(FleetSpec::default()),
                _ => return Err(err(line_no, format!("unknown section {name}"))),
            };
            (from, header) = (seen.len(), line_no);
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(line_no, format!("expected key = value, got {line:?}")));
        };
        let (key, value) = (key.trim(), value.trim());
        let env = sc.env.clone();
        let read = match &mut section {
            Section::Top => apply(TOP, slice::from_mut(&mut sc), key, value, &env),
            Section::Agent(a) => apply(AGENT, slice::from_mut(a), key, value, &env),
            Section::Background(b) => apply(BACKGROUND, slice::from_mut(b), key, value, &env),
            Section::Event(drafts) => apply(EVENT, drafts, key, value, &env),
            Section::Fleet(f) => apply(FLEET, slice::from_mut(f), key, value, &env),
        };
        let (name, kind, using) = read.map_err(|e| err(line_no, e))?;
        if let (Section::Event(drafts), ActionName) = (&mut section, kind) {
            let named = |d: &EnvironmentEvent| d.action.get().as_deref() == Some(value);
            if let Some(i) = drafts.iter().position(named) {
                drafts.swap(0, i);
            }
        }
        // A section runs from its start to the earlier of `duration` and
        // its own end; one whose window is empty never runs.
        let until = sc.duration_s;
        let window = match &section {
            Section::Agent(a) => Some((a.start_s, a.leave_s.map_or(until, |l| l.min(until)))),
            Section::Background(b) => Some((b.start_s, b.end_s.min(until))),
            Section::Event(drafts) => Some((drafts[0].at_s, until)),
            _ => None,
        };
        if let Some((start, end)) = window.filter(|(start, end)| start >= end) {
            let msg = format!(
                "{name}: nothing runs from {start} s to {end} s, the end of the run or section"
            );
            return Err(err(line_no, msg));
        }
        seen.push((line_no, name, kind, using));
    }
    close(&mut sc, section, (&seen[from..], header), &mut agent_refs)?;
    // `agent` is an `[agent]` section index, and the section must have
    // joined by the time the event fires.
    for (line_no, at_s, agent) in agent_refs {
        let msg = match sc.agents.get(agent) {
            None => format!("the scenario has [agent] sections 0..{}", sc.agents.len()),
            Some(a) if at_s < a.start_s => format!("[agent] {agent} starts at {} s", a.start_s),
            Some(_) => continue,
        };
        let msg = format!("agent: {msg}; this event names {agent} at {at_s} s");
        return Err(err(line_no, msg));
    }
    let scale = sc.fleet.as_ref().map(|f| f.topology.is_some());
    for &(line_no, name, _, using) in &seen {
        if let Some(why) = using.unread(scale) {
            return Err(err(line_no, format!("{name}: {why}")));
        }
    }
    if let Some(f) = sc.fleet.as_mut().filter(|f| f.topology.is_some()) {
        // The scale engine runs only the transfers it generates (the
        // classic engine's per-route anchors run at `transfers = 0`), and
        // numbers them in 32 bits.
        if let Some(&(line_no, ..)) = seen.iter().find(|s| s.1 == "transfers") {
            if !(1..=u32::MAX as usize).contains(&f.transfers) {
                let msg = format!("transfers: the scale engine runs 1 to {}", u32::MAX);
                return Err(err(line_no, format!("{msg}, got {}", f.transfers)));
            }
        }
        match seen.iter().find(|s| s.2 == TunerName) {
            // No `tuner` key: the scale engine's own default, spelled out so
            // the canonical form round-trips.
            None => f.tuner = FleetTuner::Fixed(ScaleWorkload::default().concurrency).name(),
            Some(&(line_no, ..)) => scale_workload(f).map(drop).map_err(|e| err(line_no, e.0))?,
        }
    }
    if sc.agents.is_empty() && sc.fleet.is_none() {
        return Err(ParseError(
            "scenario defines no [agent] sections (and no [fleet])".into(),
        ));
    }
    Ok(sc)
}

/// Serialize a scenario back to canonical INI: every key the run reads,
/// in table order. `parse(&serialize(sc))` reproduces `sc` exactly (the
/// round-trip property the fuzz suite pins).
pub fn serialize(sc: &Scenario) -> String {
    fn write<T>(out: &mut String, (label, keys): Table<T>, ts: &mut [T], scale: Option<bool>) {
        for t in ts {
            if label.starts_with('[') {
                out.push_str(&format!("\n{label}\n"));
            }
            for Key(name, _, _, field) in keys.iter().filter(|k| k.2.unread(scale).is_none()) {
                if let Some(value) = field(t).and_then(|f| f.get()) {
                    out.push_str(&format!("{name} = {value}\n"));
                }
            }
        }
    }
    let scale = sc.fleet.as_ref().map(|f| f.topology.is_some());
    let (mut out, mut sc) = (String::new(), sc.clone());
    write(&mut out, TOP, &mut [sc.clone()], scale);
    write(&mut out, AGENT, &mut sc.agents, scale);
    write(&mut out, BACKGROUND, &mut sc.background, scale);
    write(&mut out, EVENT, &mut sc.events, scale);
    write(&mut out, FLEET, sc.fleet.as_mut_slice(), scale);
    out
}

/// A dataset constructor and its argument: a file count, or the fixed
/// generator seed.
type DatasetCtor = (fn(u64) -> Dataset, u64);

/// What a `dataset =` value names. Checking a name builds nothing: the
/// seeded generators draw tens of thousands of sizes.
pub(crate) fn dataset_ctor(spec: &str) -> Result<DatasetCtor, String> {
    if let Some(count) = spec.strip_prefix("1gb:") {
        let n = gib_count(count).map_err(|e| format!("dataset: {e}"))?;
        return Ok((Dataset::uniform_1gb, n));
    }
    match spec {
        "small" => Ok((Dataset::small, 1)),
        "large" => Ok((Dataset::large, 1)),
        "mixed" => Ok((Dataset::mixed, 1)),
        other => Err(format!(
            "unknown dataset {other:?} (expected 1gb:<count>|small|large|mixed)"
        )),
    }
}

/// The count of `1gb:<count>` (and `--gigabytes`): at least one 1 GiB
/// file, and fewer than 2^64 bytes in all.
pub(crate) fn gib_count(count: &str) -> Result<u64, String> {
    match count.parse::<u64>() {
        Ok(n) if n >= 1 && n.checked_mul(GIB).is_some() => Ok(n),
        _ => Err(format!(
            "the count must be a whole number >= 1 of 1 GiB files \
             totalling less than 2^64 bytes, got {count:?}"
        )),
    }
}

fn make_dataset(spec: &str) -> Result<Dataset, ParseError> {
    let (make, arg) = dataset_ctor(spec).map_err(ParseError)?;
    Ok(make(arg))
}

/// Agent `i`'s tuner: the registry entry its spelling names, seeded
/// `seed + i`.
fn agent_tuner(sc: &Scenario, i: usize, max_cc: u32) -> Result<Box<dyn Tuner>, ParseError> {
    let tuner = FleetTuner::parse(&sc.agents[i].tuner).map_err(ParseError)?;
    Ok(tuner.make(max_cc, sc.seed.wrapping_add(i as u64)))
}

/// Drive the `[agent]` sections through the shared runner, draining
/// `tracer`'s log.
fn run_agents(sc: &Scenario, tracer: &Tracer) -> Result<(RunTrace, TraceLog), ParseError> {
    let env = resolve_env(&sc.env)
        .ok_or_else(|| ParseError(format!("unknown environment {:?}", sc.env)))?;
    let max_cc = env.max_concurrency;
    let mut sim = Simulation::new(env, sc.seed);
    sim.set_tracer(tracer.clone());
    let mut harness = SimHarness::new(sim);
    for bg in &sc.background {
        harness.sim_mut().add_background_flow(*bg);
    }
    // `[event] agent` names an `[agent]` section, but the simulator numbers
    // agents as the runner joins them: by start time, ties in section order.
    let joined_as = |i: usize| {
        let Some(a) = sc.agents.get(i) else { return i };
        let earlier = |(j, b): &(usize, &AgentSpec)| (b.start_s, *j) < (a.start_s, i);
        sc.agents.iter().enumerate().filter(earlier).count()
    };
    let events = sc.events.iter().copied().map(|mut e| {
        if let KillAgent { agent } | ReviveAgent { agent } = &mut e.action {
            *agent = joined_as(*agent);
        }
        e
    });
    // A non-finite or out-of-order event time is a parse-level error.
    harness
        .sim_mut()
        .try_add_events(events)
        .map_err(|e| ParseError(format!("[event] rejected: {e}")))?;
    let mut plans = Vec::new();
    for (i, a) in sc.agents.iter().enumerate() {
        let tuner = agent_tuner(sc, i, max_cc)?;
        let mut plan = AgentPlan::joining_at(tuner, make_dataset(&a.dataset)?, a.start_s);
        if let Some(leave) = a.leave_s {
            plan = plan.leaving_at(leave);
        }
        plans.push(plan);
    }
    let runner = Runner {
        tracer: tracer.clone(),
    };
    let trace = runner.run(&mut harness, plans, sc.duration_s);
    // The simulator records a kill or revive under the number it acted on;
    // name the section instead, as the runner's records and the report do.
    let mut log = tracer.take_log();
    for r in &mut log.records {
        if let TraceEvent::Environment { action, value } = &mut r.event {
            if action == "kill_agent" || action == "revive_agent" {
                let section = (0..sc.agents.len()).find(|&i| joined_as(i) == *value as usize);
                *value = section.map_or(*value, |i| i as f64);
            }
        }
    }
    Ok((trace, log))
}

/// The scale-engine workload a `topology =` fleet section describes; an
/// error names what the engine runs when the section's tuner is not that.
fn scale_workload(f: &FleetSpec) -> Result<ScaleWorkload, ParseError> {
    let tuner = FleetTuner::parse(&f.tuner).map_err(ParseError)?;
    ScaleWorkload {
        transfers: f.transfers,
        arrivals_per_min: f.arrivals_per_min,
        mean_file_mb: f.mean_file_mb,
        diurnal: f.diurnal,
        tenants: f.tenants,
        ..ScaleWorkload::default()
    }
    .with_tuner(tuner)
    .map_err(ParseError)
}

/// What a scenario run produced, one variant per engine. [`run_trace`] and
/// [`run_traced`] return it; [`render`] prints it.
pub enum Outcome {
    /// `[agent]` sections: the runner's per-agent trace.
    Agents(RunTrace),
    /// A classic `[fleet]` campaign: the runner trace and the fleet report.
    Fleet(RunTrace, FleetReport),
    /// A scale `[fleet]` campaign (`topology =` present).
    Scale(ScaleReport),
}

impl Outcome {
    /// The runner's per-agent trace; the scale engine keeps none.
    pub fn trace(&self) -> Option<&RunTrace> {
        match self {
            Outcome::Agents(trace) | Outcome::Fleet(trace, _) => Some(trace),
            Outcome::Scale(_) => None,
        }
    }
}

/// Run a scenario on the engine its sections select — the one place that
/// fork is taken — emitting into `tracer` and draining its log. `duration`
/// and `seed` come from the top-level keys on every engine.
fn execute(sc: &Scenario, tracer: Tracer) -> Result<(Outcome, TraceLog), ParseError> {
    let Some(f) = &sc.fleet else {
        let (trace, log) = run_agents(sc, &tracer)?;
        return Ok((Outcome::Agents(trace), log));
    };
    let Some(topology) = &f.topology else {
        let spec = CampaignSpec {
            topology: FleetTopology::multi_bottleneck(&f.links_mbps),
            workload: Workload {
                transfers: f.transfers,
                arrivals_per_min: f.arrivals_per_min,
                mean_file_mb: f.mean_file_mb,
                anchor_gb: f.anchor_gb,
            },
            tuner: FleetTuner::parse(&f.tuner).map_err(ParseError)?,
            duration_s: sc.duration_s,
            seed: sc.seed,
        };
        let out = falcon_fleet::run_campaign(&spec, tracer);
        return Ok((Outcome::Fleet(out.trace, out.report), out.log));
    };
    let topology = ScaleTopology::from_spec(topology)
        .ok_or_else(|| ParseError(format!("bad fleet topology {topology:?}")))?;
    let spec = ScaleCampaignSpec {
        workload: scale_workload(f)?,
        failures: falcon_fleet::correlated_failure_waves(&topology, f.failures, sc.duration_s),
        topology,
        duration_s: sc.duration_s,
        seed: sc.seed,
        shards: f.shards,
    };
    // Worker threads follow the host's parallelism; the report is
    // byte-identical regardless.
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let report = falcon_fleet::run_scale_campaign_traced(&spec, threads, &tracer);
    Ok((Outcome::Scale(report), tracer.take_log()))
}

/// Execute a scenario untraced. This is the seam the determinism
/// regression test drives: same scenario + same seed must yield a
/// byte-identical serialized trace.
pub fn run_trace(sc: &Scenario) -> Result<Outcome, ParseError> {
    execute(sc, Tracer::disabled()).map(|(outcome, _)| outcome)
}

/// Execute a scenario with a recording tracer and return the structured
/// log alongside (`--trace` / `--trace-summary`). This is the seam the
/// golden-trace regression suite drives: same scenario + same seed must
/// yield a byte-identical JSONL export.
pub fn run_traced(sc: &Scenario) -> Result<(Outcome, TraceLog), ParseError> {
    execute(sc, Tracer::recording())
}

/// Run a parsed scenario; returns the rendered report (and writes the trace
/// CSV if requested).
pub fn run(sc: &Scenario) -> Result<String, ParseError> {
    render(sc, &run_trace(sc)?)
}

/// Render the human-readable report of a completed run (and write the trace
/// CSV if the scenario requested one): the per-agent table for `[agent]`
/// scenarios, the campaign report for `[fleet]` ones.
pub fn render(sc: &Scenario, outcome: &Outcome) -> Result<String, ParseError> {
    let fleet = |kind: &str, summary: String| {
        format!(
            "# scenario {kind} duration={:.0}s seed={}\n{summary}",
            sc.duration_s, sc.seed
        )
    };
    let mut out = match outcome {
        Outcome::Agents(trace) => agent_table(sc, trace),
        Outcome::Fleet(_, report) => fleet("fleet", report.summary()),
        Outcome::Scale(report) => fleet("fleet-scale", report.summary()),
    };
    if let (Some(path), Some(trace)) = (&sc.trace_path, outcome.trace()) {
        std::fs::write(path, trace.to_csv())
            .map_err(|e| ParseError(format!("writing trace {path}: {e}")))?;
        out.push_str(&format!("trace written to {path}\n"));
    }
    Ok(out)
}

fn agent_table(sc: &Scenario, trace: &RunTrace) -> String {
    let mut out = format!(
        "# scenario env={} duration={:.0}s agents={}\n\
         id   tuner                          avg_gbps  tail_gbps  done_at_s\n",
        sc.env,
        sc.duration_s,
        sc.agents.len(),
    );
    for (i, a) in sc.agents.iter().enumerate() {
        let tail_from = a.start_s + (sc.duration_s - a.start_s) * 2.0 / 3.0;
        let avg = trace.avg_mbps(i, a.start_s, sc.duration_s) / 1000.0;
        let tail = trace.avg_mbps(i, tail_from, sc.duration_s) / 1000.0;
        let done = trace.completed_at[i].map_or("-".to_string(), |t| format!("{t:.0}"));
        out.push_str(&format!(
            "{i:<4} {:<26} {avg:>12.2} {tail:>10.2} {done:>10}\n",
            a.tuner
        ));
    }
    if sc.agents.len() > 1 {
        let agents: Vec<usize> = (0..sc.agents.len()).collect();
        let fair = trace.fairness(&agents, sc.duration_s * 2.0 / 3.0, sc.duration_s);
        out.push_str(&format!("jain_index (final third): {fair:.3}\n"));
    }
    for (i, a) in sc.agents.iter().enumerate() {
        let restarts = trace.restarts(i);
        let discarded = trace.discarded_probes(i);
        if restarts > 0 || discarded > 0 {
            out.push_str(&format!(
                "recovery: agent {i} ({}) restarted {restarts}x, discarded {discarded} stalled probe(s)\n",
                a.tuner
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# comment
env = emulab10
duration = 200
seed = 9

[agent]
tuner = falcon-gd
start = 0

[agent]
tuner = fixed:4
start = 50
leave = 150

[background]
start = 100
end = 160
mbps = 300
connections = 3
";

    #[test]
    fn parses_full_scenario() {
        let sc = parse(SAMPLE).unwrap();
        assert_eq!(sc.env, "emulab10");
        assert_eq!(sc.duration_s, 200.0);
        assert_eq!(sc.seed, 9);
        assert_eq!(sc.agents.len(), 2);
        assert_eq!(sc.agents[0].tuner, "falcon-gd");
        assert_eq!(sc.agents[1].tuner, "fixed:4");
        assert_eq!(sc.agents[1].leave_s, Some(150.0));
        assert_eq!(sc.background.len(), 1);
        assert_eq!(sc.background[0].demand_mbps, 300.0);
    }

    #[test]
    fn rejects_no_agents() {
        assert!(parse("env = xsede\n").is_err());
    }

    #[test]
    fn parses_event_sections() {
        // Every event fires before `duration`.
        let text = "\
duration = 400

[agent]
tuner = falcon-gd

[event]
at = 250
action = link_capacity
factor = 0.3

[event]
at = 300
action = loss_floor
rate = 0.01

[event]
at = 320
action = kill
agent = 0
";
        let sc = parse(text).unwrap();
        assert_eq!(sc.events.len(), 3);
        assert_eq!(
            sc.events[0],
            EnvironmentEvent::at(
                250.0,
                EventAction::LinkCapacityFactor {
                    resource: None,
                    factor: 0.3
                }
            )
        );
        assert_eq!(
            sc.events[1],
            EnvironmentEvent::at(300.0, EventAction::LossFloor { rate: 0.01 })
        );
        assert_eq!(
            sc.events[2],
            EnvironmentEvent::at(320.0, EventAction::KillAgent { agent: 0 })
        );
    }

    #[test]
    fn rejects_malformed_events() {
        // Missing at =.
        assert!(parse("[agent]\ntuner = falcon-gd\n[event]\naction = rtt\nrtt_s = 0.1\n").is_err());
        // Missing the action's required key.
        assert!(
            parse("[agent]\ntuner = falcon-gd\n[event]\nat = 10\naction = link_capacity\n")
                .is_err()
        );
        // Unknown action.
        assert!(
            parse("[agent]\ntuner = falcon-gd\n[event]\nat = 10\naction = earthquake\n").is_err()
        );
        // Unknown key.
        assert!(parse("[agent]\ntuner = falcon-gd\n[event]\nat = 10\nwarp = 9\n").is_err());
        // Values the simulator would index with, divide by or clamp
        // silently are errors at their own line: a resource the env does
        // not have (panicked in `apply_event_action`), a loss floor >= 1
        // (negative goodput), non-positive or non-finite factors and RTTs
        // (release builds strip the `debug_assert!`s behind them), and
        // event times that are not on the clock.
        for (key, bad) in [
            ("resource", "99"),
            ("resource", "5"),
            ("rate", "2"),
            ("rate", "1"),
            ("rate", "-0.1"),
            ("rate", "nan"),
            ("factor", "-1"),
            ("factor", "0"),
            ("factor", "nan"),
            ("factor", "inf"),
            ("rtt_s", "0"),
            ("rtt_s", "-1"),
            ("rtt_s", "nan"),
            ("at", "-5"),
            ("at", "nan"),
            ("at", "inf"),
        ] {
            let text = format!("env = emulab10\n[agent]\n[event]\n{key} = {bad}\n");
            let e = parse(&text).unwrap_err().0;
            assert!(e.starts_with(&format!("line 4: {key}:")), "{text:?}: {e}");
        }
        // The five emulab resources are 0..=4.
        let ok = "env = emulab10\n[agent]\n[event]\nat = 0\naction = link_capacity\nfactor = 0.5\nresource = 4\n";
        assert!(parse(ok).is_ok());
        // A kill or revive names an [agent] section that exists and has
        // joined by then, wherever the sections sit in the file: both were
        // accepted and then did nothing.
        let kill = |agent: usize, at: f64| {
            format!("[event]\nat = {at}\naction = kill\nagent = {agent}\n[agent]\nstart = 10\n")
        };
        for (text, want) in [
            (
                kill(1, 20.0),
                "line 4: agent: the scenario has [agent] sections 0..1",
            ),
            (
                kill(5, 20.0),
                "line 4: agent: the scenario has [agent] sections 0..1",
            ),
            (kill(0, 5.0), "line 4: agent: [agent] 0 starts at 10 s"),
        ] {
            let e = parse(&text).unwrap_err().0;
            assert!(e.starts_with(want), "{text:?}: {e}");
        }
        assert!(parse(&kill(0, 10.0)).is_ok());
    }

    #[test]
    fn kill_and_revive_name_the_agent_section() {
        // Section 0 joins after section 1, so it is the second agent the
        // simulator sees; the kill still lands on section 0, and the trace
        // records it under section 0.
        let sc = parse(
            "env = emulab10\nduration = 120\n[agent]\ntuner = fixed:4\nstart = 10\n\
             [agent]\ntuner = fixed:2\n[event]\nat = 20\naction = kill\nagent = 0\n\
             [event]\nat = 40\naction = revive\nagent = 0\n",
        )
        .unwrap();
        let out = run(&sc).unwrap();
        assert!(
            out.contains("recovery: agent 0 (fixed:4) restarted 1x"),
            "{out}"
        );
        assert!(!out.contains("recovery: agent 1"), "{out}");
        let (_, log) = run_traced(&sc).unwrap();
        let named: Vec<_> = log
            .records
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::Environment { action, value } => Some((action.as_str(), *value)),
                _ => None,
            })
            .collect();
        assert_eq!(named, [("kill_agent", 0.0), ("revive_agent", 0.0)]);
    }

    #[test]
    fn rejects_unknown_keys_and_sections() {
        assert!(parse("bogus = 1\n[agent]\ntuner = falcon-gd\n").is_err());
        assert!(parse("[agent]\nwarp = 9\n").is_err());
        // Unknown `env =` / `dataset =` names and file counts whose bytes
        // do not fit a u64 are parse errors with the line number, not
        // run-time errors (or a failed 800 TB allocation).
        for (text, want) in [
            ("[agent]\n[warp]\n", "line 2: unknown section [warp]"),
            ("env = mars\n[agent]\n", "line 1: unknown environment"),
            ("[agent]\ndataset = petabytes\n", "line 2: unknown dataset"),
            ("[agent]\ndataset = 1gb:many\n", "line 2: dataset:"),
            ("[agent]\ndataset = 1gb:-1\n", "line 2: dataset:"),
            // A transfer of nothing has nothing to tune or finish.
            ("[agent]\ndataset = 1gb:0\n", "line 2: dataset:"),
            // 2^34 GiB = 2^64 bytes.
            ("[agent]\ndataset = 1gb:17179869184\n", "line 2: dataset:"),
            (
                "[agent]\ndataset = 1gb:18446744073709551615\n",
                "line 2: dataset:",
            ),
        ] {
            let e = parse(text).unwrap_err().0;
            assert!(e.starts_with(want), "{text:?}: {e}");
        }
        // A run must end, and nothing joins, leaves or starts before t = 0:
        // `duration = inf` never returned, `nan` and `-5` printed a table
        // of garbage with exit 0.
        for (text, want) in [
            ("duration = inf\n[agent]\n", "line 1: duration:"),
            ("duration = nan\n[agent]\n", "line 1: duration:"),
            ("duration = -5\n[agent]\n", "line 1: duration:"),
            ("duration = 0\n[agent]\n", "line 1: duration:"),
            ("[agent]\nstart = -1\n", "line 2: start:"),
            ("[agent]\nstart = nan\n", "line 2: start:"),
            ("[agent]\nleave = inf\n", "line 2: leave:"),
            ("[agent]\n[background]\nstart = -1\n", "line 3: start:"),
            ("[agent]\n[background]\nmbps = -5\n", "line 3: mbps:"),
            ("[agent]\n[background]\nmbps = inf\n", "line 3: mbps:"),
            // A background flow that can never run was dropped with exit 0.
            ("[agent]\n[background]\nend = nan\n", "line 3: end:"),
            ("[agent]\n[background]\nend = -5\n", "line 3: end:"),
            (
                "[agent]\n[background]\nstart = 50\nend = 50\n",
                "line 4: end:",
            ),
            (
                "[agent]\n[background]\nstart = 50\nend = 20\n",
                "line 4: end:",
            ),
            (
                "[agent]\n[background]\nend = 20\nstart = 50\n",
                "line 4: start:",
            ),
            (
                "[agent]\n[background]\nconnections = 0\n",
                "line 3: connections:",
            ),
            // Nor an agent whose window is empty: it moved 0 bytes.
            ("duration = 60\n[agent]\nstart = 100\n", "line 3: start:"),
            ("duration = 60\n[agent]\nstart = 60\n", "line 3: start:"),
            ("[agent]\nleave = 0\n", "line 2: leave:"),
            ("[agent]\nstart = 30\nleave = 10\n", "line 3: leave:"),
            ("[agent]\nstart = 30\nleave = 30\n", "line 3: leave:"),
            ("[agent]\nleave = 10\nstart = 30\n", "line 3: start:"),
        ] {
            let e = parse(text).unwrap_err().0;
            assert!(e.starts_with(want), "{text:?}: {e}");
        }
        let open = parse("[agent]\n[background]\nstart = 5\nend = inf\nmbps = 900\n").unwrap();
        assert_eq!(open.background[0].end_s, f64::INFINITY);
        // The largest count that fits parses, and costs one entry to build.
        let sc = parse("[agent]\ndataset = 1gb:17179869183\n").unwrap();
        let d = make_dataset(&sc.agents[0].dataset).unwrap();
        assert_eq!((d.files.len(), d.len()), (1, (1 << 34) - 1));
    }

    #[test]
    fn integer_keys_parse_as_integers() {
        // Above 2^53 an f64 cannot tell neighbours apart.
        let seed = |v: &str| parse(&format!("seed = {v}\n[agent]\n")).map(|sc| sc.seed);
        assert_eq!(seed("9007199254740992").unwrap(), 9_007_199_254_740_992);
        assert_eq!(seed("9007199254740993").unwrap(), 9_007_199_254_740_993);
        assert_eq!(seed("18446744073709551615").unwrap(), u64::MAX);
        for bad in ["-1", "1.5", "nan", "1e3", "18446744073709551616", ""] {
            let e = seed(bad).unwrap_err().0;
            assert!(e.starts_with("line 1: seed:"), "{bad:?}: {e}");
        }
        for (section, key) in [
            ("background", "connections"),
            ("event", "agent"),
            ("event", "resource"),
            ("fleet", "transfers"),
            ("fleet", "failures"),
            ("fleet", "tenants"),
            ("fleet", "shards"),
        ] {
            for bad in ["-3", "2.5", "nan"] {
                let e = parse(&format!("[{section}]\n{key} = {bad}\n"))
                    .unwrap_err()
                    .0;
                assert!(
                    e.starts_with(&format!("line 2: {key}:")),
                    "{key} = {bad}: {e}"
                );
            }
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let sc = parse("# hi\n\nenv = hpclab # inline\n[agent]\ntuner = harp\n").unwrap();
        assert_eq!(sc.env, "hpclab");
        assert_eq!(sc.agents[0].tuner, "harp");
    }

    #[test]
    fn end_to_end_scenario_run() {
        let sc = parse(SAMPLE).unwrap();
        let out = run(&sc).unwrap();
        assert!(out.contains("falcon-gd"), "{out}");
        assert!(out.contains("fixed:4"), "{out}");
        assert!(out.contains("jain_index"), "{out}");
        // The GD agent should end up with real throughput.
        let gd_line = out.lines().find(|l| l.contains("falcon-gd")).unwrap();
        let tail: f64 = gd_line.split_whitespace().nth(3).unwrap().parse().unwrap();
        assert!(tail > 0.5, "GD tail {tail} Gbps\n{out}");
    }

    #[test]
    fn agent_tuners_decide_exactly_as_the_registry_does() {
        use falcon_core::ProbeMetrics;
        // A fixed probe stream: throughput rises with concurrency to a knee
        // at 12, with a deterministic wobble and loss past the knee.
        let probe = |s: falcon_core::TransferSettings, k: usize| {
            let cc = f64::from(s.concurrency);
            let thr = 80.0 * cc.min(12.0) * (1.0 + 0.01 * (k % 5) as f64);
            let loss = if cc > 12.0 { 0.002 * (cc - 12.0) } else { 0.0 };
            ProbeMetrics::from_aggregate(s, thr, loss, 5.0)
        };
        let decisions = |mut t: Box<dyn Tuner>| {
            let mut s = t.initial();
            let mut seen = vec![s];
            for k in 0..20 {
                s = t.on_sample(&probe(s, k));
                seen.push(s);
            }
            seen
        };
        for name in FleetTuner::names() {
            let name = name.replace("<cc>", "8").replace("<gbps>", "20");
            let sc = parse(&format!("seed = 9\n[agent]\ntuner = {name}\n")).unwrap();
            let registry = FleetTuner::from_name(&name).unwrap().make(32, 9);
            assert_eq!(registry.label(), agent_tuner(&sc, 0, 32).unwrap().label());
            assert_eq!(
                decisions(agent_tuner(&sc, 0, 32).unwrap()),
                decisions(registry),
                "{name}: [agent] and FleetTuner::make diverge"
            );
        }
    }

    #[test]
    fn every_dataset_name_constructs() {
        for d in ["1gb:100", "small", "large", "mixed"] {
            assert!(make_dataset(d).is_ok(), "{d}");
        }
        assert!(make_dataset("petabytes").is_err());
    }

    #[test]
    fn shipped_link_flap_scenario_parses_and_runs() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/link_flap.ini");
        let text = std::fs::read_to_string(path).unwrap();
        let sc = parse(&text).unwrap();
        assert_eq!(sc.agents.len(), 3);
        assert_eq!(sc.events.len(), 2);
        let out = run(&sc).unwrap();
        for tuner in ["falcon-hc", "falcon-gd", "falcon-bo"] {
            assert!(out.contains(tuner), "{out}");
        }
    }

    #[test]
    fn parses_fleet_section() {
        let sc = parse(
            "duration = 600\nseed = 7\n\n[fleet]\nlinks = 1000, 1600, 2500\ntransfers = 200\n\
             arrivals_per_min = 24\nmean_file_mb = 500\nanchor_gb = 40\ntuner = falcon-gd\n",
        )
        .unwrap();
        let f = sc.fleet.unwrap();
        assert_eq!(f.links_mbps, vec![1000.0, 1600.0, 2500.0]);
        assert_eq!(f.transfers, 200);
        assert_eq!(f.tuner, "falcon-gd");
        assert!(sc.agents.is_empty());
    }

    #[test]
    fn rejects_bad_fleet_sections() {
        // Empty / non-positive / too many links.
        assert!(parse("[fleet]\nlinks =\n").is_err());
        assert!(parse("[fleet]\nlinks = 100, -5\n").is_err());
        let many = (0..65).map(|_| "100").collect::<Vec<_>>().join(",");
        assert!(parse(&format!("[fleet]\nlinks = {many}\n")).is_err());
        // 64 links is now in range (the classic engine's mask width).
        let max = (0..64).map(|_| "100").collect::<Vec<_>>().join(",");
        assert!(parse(&format!("[fleet]\nlinks = {max}\n")).is_ok());
        // Unknown key.
        assert!(parse("[fleet]\nwarp = 9\n").is_err());
        // Tuner spellings are checked against the registry at parse time,
        // with the line number, in [fleet] and [agent] alike.
        for (text, want) in [
            ("[fleet]\ntuner = skynet\n", "line 2: unknown tuner"),
            ("[fleet]\ntuner = fixed:0\n", "line 2: unknown tuner"),
            ("[agent]\ntuner = skynet\n", "line 2: unknown tuner"),
            ("[agent]\ntuner = fixed:0\n", "line 2: unknown tuner"),
            ("[agent]\ntuner = rl:warm:0\n", "line 2: unknown tuner"),
            // Workload rates and sizes the generators divide by
            // (`arrivals_per_min = nan` printed NaN utilisations).
            (
                "[fleet]\narrivals_per_min = nan\n",
                "line 2: arrivals_per_min:",
            ),
            (
                "[fleet]\narrivals_per_min = 0\n",
                "line 2: arrivals_per_min:",
            ),
            ("[fleet]\nmean_file_mb = -1\n", "line 2: mean_file_mb:"),
            ("[fleet]\nmean_file_mb = inf\n", "line 2: mean_file_mb:"),
            ("[fleet]\nanchor_gb = -1\n", "line 2: anchor_gb:"),
            ("[fleet]\nanchor_gb = nan\n", "line 2: anchor_gb:"),
        ] {
            let e = parse(text).unwrap_err().0;
            assert!(e.starts_with(want), "{text:?}: {e}");
        }
    }

    #[test]
    fn fleet_rejects_what_it_would_not_run() {
        // Accepted means run: a fleet generates its own transfers and runs
        // no hand-listed section, and the scale keys need a scale fabric.
        for (text, want) in [
            ("[agent]\n[fleet]\n", "line 2: [fleet]:"),
            ("[fleet]\n[agent]\n", "line 2: [agent]:"),
            ("[fleet]\n[background]\nmbps = 5\n", "line 2: [background]:"),
            ("[fleet]\n[event]\nat = 100\n", "line 2: [event]:"),
            (
                "[event]\nat = 1\naction = rtt\nrtt_s = 1\n[fleet]\n",
                "line 5: [fleet]:",
            ),
            ("[fleet]\n[fleet]\n", "line 2: [fleet]:"),
            ("[fleet]\ndiurnal = 0.5\n", "line 2: diurnal: a scale"),
            ("[fleet]\nfailures = 1\n", "line 2: failures: a scale"),
            ("[fleet]\ntenants = 2\n", "line 2: tenants: a scale"),
            (
                "[fleet]\nlinks = 9\nshards = 3\nshards = 4\n",
                "line 3: shards: a scale",
            ),
            // The scale engine keeps no runner trace: no file was written.
            (
                "trace = t.csv\n[fleet]\ntopology = dtn:2x2\n",
                "line 1: trace:",
            ),
        ] {
            let e = parse(text).unwrap_err().0;
            assert!(e.starts_with(want), "{text:?}: {e}");
        }
        // The scale keys are fine on either side of `topology`.
        let sc = parse("[fleet]\nshards = 3\ntopology = dtn:2x2\ndiurnal = 0.5\n").unwrap();
        assert_eq!(sc.fleet.unwrap().shards, 3);
    }

    #[test]
    fn a_key_nothing_reads_is_an_error() {
        // Accepted means run: each of these parsed and then changed nothing.
        let event = |keys: &str| format!("[agent]\n[event]\nat = 1\n{keys}");
        for (text, want) in [
            (
                event("action = loss_floor\nrate = 0.1\nfactor = 0.3\n"),
                "line 6: factor: action loss_floor does not read it",
            ),
            (
                event("action = loss_floor\nrate = 0.1\nagent = 7\n"),
                "line 6: agent:",
            ),
            (
                event("action = loss_floor\nrate = 0.1\nresource = 2\n"),
                "line 6: resource:",
            ),
            (
                event("action = loss_floor\nrate = 0.1\nrtt_s = 5\n"),
                "line 6: rtt_s:",
            ),
            (
                event("rate = 0.1\naction = kill\nagent = 0\n"),
                "line 4: rate: action kill does not read it",
            ),
            (
                event("action = disk_throttle\nfactor = 2\nresource = 1\n"),
                "line 6: resource:",
            ),
            // The scale engine builds its links from `topology`, and no
            // fleet reads the top-level env.
            (
                "[fleet]\ntopology = dtn:2x2\nlinks = 1, 2, 3\n".into(),
                "line 3: links:",
            ),
            (
                "[fleet]\nanchor_gb = 9999\ntopology = dtn:2x2\n".into(),
                "line 2: anchor_gb:",
            ),
            (
                "env = hpclab\n[fleet]\ntopology = dtn:2x2\n".into(),
                "line 1: env:",
            ),
            (
                "env = hpclab\n[fleet]\nlinks = 100\n".into(),
                "line 1: env:",
            ),
            // A flow with no demand was dropped.
            (
                "[agent]\n[background]\nstart = 5\n".into(),
                "line 2: [background] requires mbps =",
            ),
            ("[agent]\n[background]\nmbps = 0\n".into(), "line 3: mbps:"),
            // Nothing fires or starts at or after the end of the run.
            (
                "duration = 60\n[agent]\n[event]\nat = 60\naction = rtt\nrtt_s = 1\n".into(),
                "line 4: at:",
            ),
            (
                "duration = 60\n[agent]\n[event]\nat = 100\n".into(),
                "line 4: at:",
            ),
            (
                "duration = 60\n[agent]\n[background]\nstart = 70\nmbps = 5\n".into(),
                "line 4: start:",
            ),
            (
                "duration = 60\n[agent]\n[background]\nmbps = 5\nstart = 60\n".into(),
                "line 5: start:",
            ),
        ] {
            let e = parse(&text).unwrap_err().0;
            assert!(e.starts_with(want), "{text:?}: {e}");
        }
        // A key the action reads may come before `action`, and a later
        // `action` replaces an earlier one.
        let sc = parse(&event(
            "factor = 0.5\naction = rtt\naction = link_capacity\n",
        ))
        .unwrap();
        assert_eq!(
            sc.events[0].action,
            EventAction::LinkCapacityFactor {
                resource: None,
                factor: 0.5
            }
        );
        // `serialize` writes only what the run reads.
        let scale = serialize(&parse("[fleet]\ntopology = dtn:2x2\n").unwrap());
        let classic = serialize(&parse("[fleet]\n").unwrap());
        for key in ["env =", "links =", "anchor_gb ="] {
            assert!(!scale.contains(key), "{scale}");
        }
        assert!(
            !classic.contains("env =") && !classic.contains("shards ="),
            "{classic}"
        );
    }

    #[test]
    fn readme_table_lists_every_key() {
        let readme = include_str!("../../../README.md");
        let table = readme
            .split("### Scenario keys")
            .nth(1)
            .expect("README has a `### Scenario keys` section");
        let table = table.split("\n#").next().unwrap_or(table);
        for (section, key) in keys() {
            assert!(
                table.contains(&format!("| {section} | `{key}` |")),
                "README scenario-key table lacks a `{section}` `{key}` row"
            );
        }
    }

    #[test]
    fn parses_scale_fleet_keys() {
        let sc = parse(
            "duration = 300\nseed = 11\n\n[fleet]\ntopology = fat-tree:8:local\n\
             transfers = 5000\narrivals_per_min = 9000\nmean_file_mb = 50\n\
             diurnal = 0.4\nfailures = 3\ntenants = 4\nshards = 8\ntuner = fixed:2\n",
        )
        .unwrap();
        let f = sc.fleet.unwrap();
        assert_eq!(f.topology.as_deref(), Some("fat-tree:8:local"));
        assert_eq!(f.diurnal, 0.4);
        assert_eq!(f.failures, 3);
        assert_eq!(f.tenants, 4);
        assert_eq!(f.shards, 8);
    }

    #[test]
    fn rejects_bad_scale_fleet_keys() {
        // Malformed or out-of-range topology specs fail at parse time.
        for bad in [
            "torus:4",
            "fat-tree:3", // odd k
            "fat-tree:0",
            "fat-tree:",
            "dumbbell:4", // missing class count
            "dumbbell:0x2",
            "dtn:1x4", // < 2 hubs
            "dtn:4x0",
        ] {
            assert!(
                parse(&format!("[fleet]\ntopology = {bad}\n")).is_err(),
                "{bad:?} must be rejected"
            );
        }
        // An explicit tuner the scale engine cannot run is an error at the
        // tuner's line, whichever side of `topology` it sits on.
        for (tuner, want) in [
            ("falcon-bo", "the scale engine runs"),
            ("harp", "the scale engine runs"),
            ("fixd:2", "unknown tuner"),
            ("fixed:0", "unknown tuner"),
        ] {
            let after = format!("[fleet]\ntopology = dtn:2x2\ntuner = {tuner}\n");
            let e = parse(&after).unwrap_err().0;
            assert!(e.starts_with(&format!("line 3: {want}")), "{tuner}: {e}");
            let before = format!("[fleet]\ntuner = {tuner}\ntopology = dtn:2x2\n");
            let e = parse(&before).unwrap_err().0;
            assert!(e.starts_with(&format!("line 2: {want}")), "{tuner}: {e}");
        }
        // No tuner key keeps the engine's default, spelled out.
        let sc = parse("[fleet]\ntopology = dumbbell:2x2\n").unwrap();
        assert_eq!(sc.fleet.unwrap().tuner, "fixed:4");
        for (key, want) in [
            ("diurnal = 1.5", "line 3: diurnal: must be in [0, 1)"),
            ("diurnal = -0.1", "line 3: diurnal: must be in [0, 1)"),
            ("tenants = 0", "line 3: tenants: must be >= 1"),
            ("shards = 0", "line 3: shards: must be >= 1"),
            (
                "transfers = 0",
                "line 3: transfers: the scale engine runs 1 to 4294967295, got 0",
            ),
            (
                "transfers = 4294967296",
                "line 3: transfers: the scale engine runs 1 to 4294967295, got 4294967296",
            ),
        ] {
            let e = parse(&format!("[fleet]\ntopology = dtn:2x2\n{key}\n"))
                .unwrap_err()
                .0;
            assert!(e.starts_with(want), "{key}: {e}");
        }
        // A count ahead of `topology` fails at its own line. The classic
        // engine's per-route anchors still run with no churn at all.
        let e = parse("[fleet]\ntransfers = 0\ntopology = dtn:2x2\n").unwrap_err();
        assert!(e.0.starts_with("line 2: transfers:"), "{}", e.0);
        let classic = parse("[fleet]\ntransfers = 0\n").unwrap();
        assert_eq!(classic.fleet.unwrap().transfers, 0);
    }

    #[test]
    fn scale_fleet_keys_round_trip_and_fuzz() {
        // Round-trip: parse(serialize(sc)) == sc for every generator
        // family and key combination, including defaults left implicit.
        for (topo, diurnal, failures, tenants, shards) in [
            ("fat-tree:4", 0.0, 0usize, 1u32, 8u32),
            ("fat-tree:8:local", 0.5, 2, 3, 4),
            ("dumbbell:6x3", 0.25, 1, 1, 2),
            ("dtn:3x5", 0.0, 4, 6, 8),
        ] {
            let mut sc = Scenario::default();
            sc.agents.clear();
            let mut f = FleetSpec {
                topology: Some(topo.into()),
                diurnal,
                failures,
                tenants,
                shards,
                ..FleetSpec::default()
            };
            f.tuner = "fixed:2".into();
            sc.fleet = Some(f);
            let text = serialize(&sc);
            assert_eq!(parse(&text).unwrap(), sc, "round-trip for {topo}");
        }
        // INI fuzz over the new keys: random values either parse to a
        // scenario that re-serializes canonically, or error cleanly —
        // never panic. A small xorshift keeps the loop dependency-free.
        let mut state = 0x5ca1e_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let families = ["fat-tree", "dumbbell", "dtn", "mesh"];
        let mut parsed = 0usize;
        for _ in 0..200 {
            let family = families[(next() % families.len() as u64) as usize];
            let a = next() % 40;
            let b = next() % 10;
            let topo = match next() % 4 {
                0 => format!("{family}:{a}"),
                1 => format!("{family}:{a}x{b}"),
                2 => format!("{family}:{a}:local"),
                _ => format!("{family}:"),
            };
            let text = format!(
                "[fleet]\ntopology = {topo}\ndiurnal = {:.2}\nfailures = {}\n\
                 tenants = {}\nshards = {}\n",
                (next() % 200) as f64 / 100.0 - 0.5,
                next() % 6,
                next() % 4,
                next() % 4,
            );
            if let Ok(sc) = parse(&text) {
                parsed += 1;
                let round = serialize(&sc);
                assert_eq!(parse(&round).unwrap(), sc, "canonical form for {text:?}");
            }
        }
        assert!(parsed > 0, "fuzz loop never produced a valid scenario");
    }

    #[test]
    fn scale_fleet_scenario_runs_and_reports() {
        let sc = parse(
            "duration = 60\nseed = 5\n\n[fleet]\ntopology = dumbbell:2x2\n\
             transfers = 150\narrivals_per_min = 600\nmean_file_mb = 40\n\
             failures = 1\ntuner = fixed:2\n",
        )
        .unwrap();
        let out = run(&sc).unwrap();
        assert!(out.contains("# scenario fleet-scale"), "{out}");
        assert!(out.contains("scale campaign dumbbell:2x2"), "{out}");
        assert!(out.contains("transfers 150"), "{out}");
        // The traced path renders the same report and carries the
        // fleet.scale.* counters; the scale engine keeps no runner trace.
        let (outcome, log) = run_traced(&sc).unwrap();
        assert_eq!(render(&sc, &outcome).unwrap(), out);
        assert_eq!(log.counter("fleet.scale.transfers"), Some(150));
        assert!(outcome.trace().is_none());
    }

    #[test]
    fn scale_fleet_scenario_runs_rl_tuners() {
        let sc = parse(
            "duration = 120\nseed = 5\n\n[fleet]\ntopology = dumbbell:2x2\n\
             transfers = 80\narrivals_per_min = 240\nmean_file_mb = 300\ntuner = rl:bandit\n",
        )
        .unwrap();
        let (Outcome::Scale(report), log) = run_traced(&sc).unwrap() else {
            panic!("a topology key selects the scale engine");
        };
        assert_eq!(report.completions + report.stranded, report.transfers);
        assert!(report.probes > 0, "rl scale run must take probe decisions");
        assert_eq!(log.counter("fleet.scale.probes"), Some(report.probes));
    }

    #[test]
    fn scenario_round_trips_through_serialize() {
        let mut sc = parse(SAMPLE).unwrap();
        sc.events.push(EnvironmentEvent::at(
            90.0,
            EventAction::LossFloor { rate: 0.01 },
        ));
        let text = serialize(&sc);
        assert_eq!(parse(&text).unwrap(), sc);
        let fleet = Scenario {
            fleet: Some(FleetSpec::default()),
            ..Scenario::default()
        };
        assert_eq!(parse(&serialize(&fleet)).unwrap(), fleet);
    }

    /// A classic fleet renders its report, and the same text whether or
    /// not the run records: the report reads only the runner's trace.
    fn assert_fleet_report_independent_of_tracing(text: &str) {
        let sc = parse(text).unwrap();
        let plain = run(&sc).unwrap();
        assert!(
            plain.contains("fleet report") && plain.contains("  link0 "),
            "{plain}"
        );
        assert!(!plain.contains(" 0 converged"), "{plain}");
        let (outcome, log) = run_traced(&sc).unwrap();
        assert_eq!(render(&sc, &outcome).unwrap(), plain);
        assert!(!log.records.is_empty());
    }

    #[test]
    fn fleet_scenario_runs_and_reports() {
        assert_fleet_report_independent_of_tracing(
            "duration = 150\nseed = 3\n\n[fleet]\nlinks = 500, 800\ntransfers = 12\n\
             arrivals_per_min = 12\nmean_file_mb = 300\nanchor_gb = 8\ntuner = falcon-gd\n",
        );
        let churn = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/fleet_churn.ini"
        );
        assert_fleet_report_independent_of_tracing(&std::fs::read_to_string(churn).unwrap());
    }

    #[test]
    fn bo_fleet_report_does_not_depend_on_tracing() {
        // The shape of one benchmark `fleet-bo` input.
        assert_fleet_report_independent_of_tracing(
            "duration = 600\nseed = 11\n\n[fleet]\nlinks = 1000, 1600, 2500\n\
             transfers = 200\narrivals_per_min = 24\nmean_file_mb = 500\n\
             anchor_gb = 40\ntuner = falcon-bo\n",
        );
    }

    #[test]
    fn sixty_four_link_fleet_runs_to_its_report() {
        // The widest fleet `links =` accepts: its cross route and every
        // full-path mask use all 64 bits of the routing mask.
        let links = vec!["1000"; 64].join(", ");
        let sc = parse(&format!(
            "duration = 60\nseed = 4\n\n[fleet]\nlinks = {links}\ntransfers = 6\n\
             arrivals_per_min = 30\nmean_file_mb = 200\nanchor_gb = 2\ntuner = falcon-gd\n"
        ))
        .unwrap();
        let out = run(&sc).unwrap();
        assert!(out.contains("fleet report"), "{out}");
        assert!(out.contains("link63"), "{out}");
        assert!(out.contains("completed;"), "{out}");
    }

    #[test]
    fn every_shipped_scenario_is_canonical() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
        let mut checked = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "ini") {
                let text = std::fs::read_to_string(&path).unwrap();
                let sc = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                assert_eq!(parse(&serialize(&sc)).unwrap(), sc, "{}", path.display());
                checked += 1;
            }
        }
        assert!(checked >= 7, "only {checked} scenarios in {dir}");
    }

    #[test]
    fn trace_file_written() {
        let path = std::env::temp_dir().join("falcon_scenario_trace_test.csv");
        let text = format!(
            "env = emulab10\nduration = 60\ntrace = {}\n[agent]\ntuner = falcon-gd\n",
            path.display()
        );
        let sc = parse(&text).unwrap();
        let out = run(&sc).unwrap();
        assert!(out.contains("trace written"));
        let csv = std::fs::read_to_string(&path).unwrap();
        assert!(csv.starts_with("t_s,agent,label"));
        assert!(csv.lines().count() > 30);
        std::fs::remove_file(&path).ok();
    }
}
