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
//! Comments start with `#`; keys are `key = value`; `[agent]`,
//! `[background]` and `[event]` open repeated sections.
//!
//! Every `tuner =` value is a spelling of the one tuner registry
//! ([`falcon_fleet::FleetTuner`]; README §"Tuner names" is the table) and
//! is checked against it at parse time. The spelling is all there is to a
//! tuner: a learning tuner's warm-start corpus is part of its name
//! (`rl:warm:<gbps>`), as HARP's is (`harp:<gbps>`).
//!
//! A `[fleet]` section replaces hand-listed agents with a generated
//! multi-bottleneck campaign (see [`falcon_fleet`]): `links` is a
//! comma-separated list of backbone capacities in Mbps, and `transfers`,
//! `arrivals_per_min`, `mean_file_mb`, `anchor_gb`, `tuner` parameterize
//! the workload. `duration` and `seed` still come from the top level.
//! Adding `topology = fat-tree:<k>[:local] | dumbbell:<pairs>x<classes> |
//! dtn:<hubs>x<spokes>` switches the section to the fleet-*scale* engine
//! (10⁵+ transfers, sharded incremental max-min); the scale-only keys
//! `diurnal` (arrival amplitude in `[0,1)`), `failures` (correlated
//! link-failure waves), `tenants` (churn groups), and `shards` then
//! shape the soak workload (without `topology` they are a parse error),
//! while `links` and `anchor_gb` are ignored. A scenario with a `[fleet]`
//! has no `[agent]`, `[background]` or `[event]` section.
//! The scale engine runs `fixed:<cc>` (the default, at
//! `ScaleWorkload::default().concurrency`) and `rl:*` only; any other
//! explicit tuner is a parse error.
//!
//! `[event]` actions (see [`falcon_sim::EventAction`]):
//!
//! | `action =`      | keys                           | effect                               |
//! |-----------------|--------------------------------|--------------------------------------|
//! | `link_capacity` | `factor`, optional `resource`  | scale a link's baseline capacity     |
//! | `loss_floor`    | `rate`                         | impose a packet-loss floor           |
//! | `disk_throttle` | `factor`                       | scale per-process disk caps          |
//! | `rtt`           | `rtt_s`                        | set the round-trip time              |
//! | `kill`          | `agent`                        | crash an agent's transfer process    |
//! | `revive`        | `agent`                        | bring a killed agent back            |

use falcon_fleet::{
    CampaignSpec, FleetReport, FleetTopology, FleetTuner, ScaleCampaignSpec, ScaleReport,
    ScaleTopology, ScaleWorkload, Workload,
};
use falcon_sim::{BackgroundFlow, EnvironmentEvent, EventAction, Simulation};
use falcon_trace::{TraceLog, Tracer};
use falcon_transfer::dataset::{Dataset, GIB};
use falcon_transfer::harness::SimHarness;
use falcon_transfer::runner::{AgentPlan, RunTrace, Runner, Tuner};

use crate::args::{self, ParseError};
use crate::run::resolve_env;

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
/// section (a parse error); `duration` and `seed` still apply.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Backbone link capacities in Mbps (`links = 1000, 1600, 2500`).
    pub links_mbps: Vec<f64>,
    /// Churning arrivals beyond the per-route anchors.
    pub transfers: usize,
    /// Mean arrival rate (per minute).
    pub arrivals_per_min: f64,
    /// Mean churn file size (MB).
    pub mean_file_mb: f64,
    /// Per-route anchor transfer size (GB); 0 disables anchors.
    pub anchor_gb: f64,
    /// Tuner for every transfer: any registry spelling (README §"Tuner
    /// names"); with `topology` set, only `fixed:<cc>` and `rl:*`.
    pub tuner: String,
    /// Generated-fabric spec (`fat-tree:<k>[:local]`,
    /// `dumbbell:<pairs>x<classes>`, `dtn:<hubs>x<spokes>`). When set the
    /// scenario runs on the scale engine
    /// ([`falcon_fleet::run_scale_campaign`]) instead of the classic
    /// runner-driven campaign; `links` is then ignored.
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
    /// Optional path for the full trace CSV.
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

#[derive(Debug, PartialEq)]
enum Section {
    Top,
    Agent,
    Background,
    Event,
    Fleet,
}

/// Accumulates the keys of one `[event]` section until it can be built.
#[derive(Debug, Clone, Default)]
struct EventSpec {
    at_s: Option<f64>,
    action: Option<String>,
    factor: Option<f64>,
    rate: Option<f64>,
    rtt_s: Option<f64>,
    agent: Option<usize>,
    resource: Option<usize>,
}

impl EventSpec {
    fn build(&self) -> Result<EnvironmentEvent, ParseError> {
        let at_s = self
            .at_s
            .ok_or_else(|| ParseError("[event] requires at = <seconds>".into()))?;
        let action_name = self
            .action
            .as_deref()
            .ok_or_else(|| ParseError("[event] requires action = <name>".into()))?;
        let need = |v: Option<f64>, key: &str| {
            v.ok_or_else(|| ParseError(format!("[event] action {action_name} requires {key} =")))
        };
        let need_agent = || {
            self.agent
                .ok_or_else(|| ParseError(format!("[event] action {action_name} requires agent =")))
        };
        let action = match action_name {
            "link_capacity" => EventAction::LinkCapacityFactor {
                resource: self.resource,
                factor: need(self.factor, "factor")?,
            },
            "loss_floor" => EventAction::LossFloor {
                rate: need(self.rate, "rate")?,
            },
            "disk_throttle" => EventAction::DiskThrottleFactor {
                factor: need(self.factor, "factor")?,
            },
            "rtt" => EventAction::RttShift {
                rtt_s: need(self.rtt_s, "rtt_s")?,
            },
            "kill" => EventAction::KillAgent {
                agent: need_agent()?,
            },
            "revive" => EventAction::ReviveAgent {
                agent: need_agent()?,
            },
            other => {
                return Err(ParseError(format!(
                    "unknown event action {other:?} (expected link_capacity|loss_floor|disk_throttle|rtt|kill|revive)"
                )))
            }
        };
        Ok(EnvironmentEvent::at(at_s, action))
    }
}

/// Parse a scenario file's contents.
pub fn parse(text: &str) -> Result<Scenario, ParseError> {
    let mut sc = Scenario::default();
    let mut section = Section::Top;
    let mut bg = BackgroundFlow {
        start_s: 0.0,
        end_s: f64::INFINITY,
        demand_mbps: 0.0,
        connections: 1,
    };

    let mut ev = EventSpec::default();
    // Line of the `[fleet]` section's `tuner` key, if it has one.
    let mut fleet_tuner_line = None;
    // Line and name of the `[fleet]` section's first scale-engine key: an
    // error unless the section also sets `topology`.
    let mut scale_key = None;

    fn err(line_no: usize, msg: String) -> ParseError {
        ParseError(format!("line {}: {msg}", line_no + 1))
    }
    // Count and index keys parse as integers, never through `f64`: that
    // would round above 2^53 and turn `-1`, `1.5` and `nan` into 0 or 1.
    fn int<T: std::str::FromStr>(line_no: usize, key: &str, v: &str) -> Result<T, ParseError> {
        v.parse().map_err(|_| {
            err(
                line_no,
                format!("{key}: expected a whole number, got {v:?}"),
            )
        })
    }
    let flush_bg = |sc: &mut Scenario, bg: &BackgroundFlow| {
        if bg.demand_mbps > 0.0 {
            sc.background.push(*bg);
        }
    };
    let flush_ev = |sc: &mut Scenario, ev: &EventSpec| -> Result<(), ParseError> {
        sc.events.push(ev.build()?);
        Ok(())
    };

    for (line_no, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            match section {
                Section::Background => {
                    flush_bg(&mut sc, &bg);
                    bg.demand_mbps = 0.0;
                }
                Section::Event => flush_ev(&mut sc, &ev)?,
                _ => {}
            }
            // A fleet generates its own transfers on its own links, so it
            // would run no other section (a second `[fleet]` replaced it).
            let name = name.trim();
            if sc.fleet.is_some() || name == "fleet" && section != Section::Top {
                let msg = format!("[{name}]: a scenario with a [fleet] has no other section");
                return Err(err(line_no, msg));
            }
            section = match name {
                "agent" => {
                    sc.agents.push(AgentSpec::default());
                    Section::Agent
                }
                "background" => {
                    bg = BackgroundFlow {
                        start_s: 0.0,
                        end_s: f64::INFINITY,
                        demand_mbps: 0.0,
                        connections: 1,
                    };
                    Section::Background
                }
                "event" => {
                    ev = EventSpec::default();
                    Section::Event
                }
                "fleet" => {
                    sc.fleet = Some(FleetSpec::default());
                    Section::Fleet
                }
                other => return Err(err(line_no, format!("unknown section [{other}]"))),
            };
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(line_no, format!("expected key = value, got {line:?}")));
        };
        let (key, value) = (key.trim(), value.trim());
        let num = |v: &str| -> Result<f64, ParseError> {
            v.parse()
                .map_err(|_| err(line_no, format!("{key}: cannot parse {v:?}")))
        };
        let ranged = |v: &str, ok: fn(f64) -> bool, want: &str| {
            args::ranged(key, v, ok, want).map_err(|e| err(line_no, e.0))
        };
        let positive = |v: &str| ranged(v, |x| x > 0.0, "finite and > 0");
        let non_negative = |v: &str| ranged(v, |x| x >= 0.0, "finite and >= 0");
        match section {
            Section::Top => match key {
                "env" => {
                    if resolve_env(value).is_none() {
                        return Err(err(line_no, format!("unknown environment {value:?}")));
                    }
                    sc.env = value.to_string();
                }
                "duration" => sc.duration_s = positive(value)?,
                "seed" => sc.seed = int(line_no, key, value)?,
                "trace" => sc.trace_path = Some(value.to_string()),
                other => return Err(err(line_no, format!("unknown key {other:?}"))),
            },
            Section::Agent => {
                let Some(a) = sc.agents.last_mut() else {
                    return Err(err(line_no, "agent key outside an [agent] section".into()));
                };
                match key {
                    "tuner" => {
                        FleetTuner::parse(value).map_err(|m| err(line_no, m))?;
                        a.tuner = value.to_string();
                    }
                    "start" => a.start_s = non_negative(value)?,
                    "leave" => a.leave_s = Some(non_negative(value)?),
                    "dataset" => {
                        dataset_ctor(value).map_err(|m| err(line_no, m))?;
                        a.dataset = value.to_string();
                    }
                    other => return Err(err(line_no, format!("unknown agent key {other:?}"))),
                }
            }
            // A flow whose window is empty or that opens no connection never
            // runs; reject it rather than drop it silently. `end = inf` is
            // the open-ended spelling.
            Section::Background => match key {
                "start" => {
                    bg.start_s = non_negative(value)?;
                    if bg.start_s >= bg.end_s {
                        let msg = format!("start: must be < end = {}, got {value:?}", bg.end_s);
                        return Err(err(line_no, msg));
                    }
                }
                "end" => {
                    let end = num(value)?;
                    if end.is_nan() || end <= bg.start_s {
                        let msg = format!("end: must be > start = {}, got {value:?}", bg.start_s);
                        return Err(err(line_no, msg));
                    }
                    bg.end_s = end;
                }
                "mbps" => bg.demand_mbps = non_negative(value)?,
                "connections" => {
                    bg.connections = int(line_no, key, value)?;
                    if bg.connections == 0 {
                        return Err(err(line_no, "connections: must be >= 1".into()));
                    }
                }
                other => return Err(err(line_no, format!("unknown background key {other:?}"))),
            },
            Section::Event => match key {
                "at" => ev.at_s = Some(non_negative(value)?),
                "action" => ev.action = Some(value.to_string()),
                "factor" => ev.factor = Some(positive(value)?),
                "rate" => ev.rate = Some(ranged(value, |x| (0.0..1.0).contains(&x), "in [0, 1)")?),
                "rtt_s" => ev.rtt_s = Some(positive(value)?),
                "agent" => ev.agent = Some(int(line_no, key, value)?),
                "resource" => {
                    // `env` is a top-level key, so it is final by the time
                    // any section is read.
                    let resources = resolve_env(&sc.env).map_or(0, |env| env.resources.len());
                    let r: usize = int(line_no, key, value)?;
                    if r >= resources {
                        let msg = format!(
                            "resource: env {} has resources 0..{resources}, got {r}",
                            sc.env
                        );
                        return Err(err(line_no, msg));
                    }
                    ev.resource = Some(r);
                }
                other => return Err(err(line_no, format!("unknown event key {other:?}"))),
            },
            Section::Fleet => {
                let Some(f) = sc.fleet.as_mut() else {
                    return Err(err(line_no, "fleet key outside a [fleet] section".into()));
                };
                if matches!(key, "diurnal" | "failures" | "tenants" | "shards") {
                    scale_key.get_or_insert((line_no, key));
                }
                match key {
                    "links" => {
                        let caps: Result<Vec<f64>, ParseError> =
                            value.split(',').map(|v| num(v.trim())).collect();
                        let caps = caps?;
                        if caps.is_empty() || caps.len() > 64 || !caps.iter().all(|&c| c > 0.0) {
                            return Err(err(
                                line_no,
                                format!("links: need 1..=64 positive capacities, got {value:?}"),
                            ));
                        }
                        f.links_mbps = caps;
                    }
                    "transfers" => f.transfers = int(line_no, key, value)?,
                    "arrivals_per_min" => f.arrivals_per_min = positive(value)?,
                    "mean_file_mb" => f.mean_file_mb = positive(value)?,
                    "anchor_gb" => f.anchor_gb = non_negative(value)?,
                    "tuner" => {
                        FleetTuner::parse(value).map_err(|m| err(line_no, m))?;
                        f.tuner = value.to_string();
                        fleet_tuner_line = Some(line_no);
                    }
                    "topology" => {
                        if ScaleTopology::from_spec(value).is_none() {
                            return Err(err(
                                line_no,
                                format!(
                                    "topology: {value:?} is not fat-tree:<k>[:local] | \
                                     dumbbell:<pairs>x<classes> | dtn:<hubs>x<spokes>"
                                ),
                            ));
                        }
                        f.topology = Some(value.to_string());
                    }
                    "diurnal" => {
                        let v = num(value)?;
                        if !(0.0..1.0).contains(&v) {
                            return Err(err(
                                line_no,
                                format!("diurnal: amplitude must be in [0, 1), got {value:?}"),
                            ));
                        }
                        f.diurnal = v;
                    }
                    "failures" => f.failures = int(line_no, key, value)?,
                    "tenants" => {
                        f.tenants = int(line_no, key, value)?;
                        if f.tenants == 0 {
                            return Err(err(line_no, "tenants: must be >= 1".into()));
                        }
                    }
                    "shards" => {
                        f.shards = int(line_no, key, value)?;
                        if f.shards == 0 {
                            return Err(err(line_no, "shards: must be >= 1".into()));
                        }
                    }
                    other => return Err(err(line_no, format!("unknown fleet key {other:?}"))),
                }
            }
        }
    }
    match section {
        Section::Background => flush_bg(&mut sc, &bg),
        Section::Event => flush_ev(&mut sc, &ev)?,
        _ => {}
    }
    if let (Some(f), Some((line_no, key))) = (&sc.fleet, scale_key) {
        if f.topology.is_none() {
            let msg = format!("{key}: a scale-engine key; this [fleet] sets no topology");
            return Err(err(line_no, msg));
        }
    }
    if let Some(f) = sc.fleet.as_mut().filter(|f| f.topology.is_some()) {
        match fleet_tuner_line {
            // No `tuner` key: the scale engine's own default, spelled out so
            // the canonical form round-trips.
            None => f.tuner = FleetTuner::Fixed(ScaleWorkload::default().concurrency).name(),
            Some(line_no) => {
                scale_workload(f).map_err(|e| err(line_no, e.0))?;
            }
        }
    }
    if sc.agents.is_empty() && sc.fleet.is_none() {
        return Err(ParseError(
            "scenario defines no [agent] sections (and no [fleet])".into(),
        ));
    }
    Ok(sc)
}

/// Serialize a scenario back to canonical INI. `parse(&serialize(sc))`
/// reproduces `sc` exactly (the round-trip property the fuzz suite pins),
/// with one normalization: `[background]` sections with zero demand are
/// dropped, exactly as `parse` drops them.
pub fn serialize(sc: &Scenario) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    // write! to a String is infallible; results are discarded with `let _`.
    let w = &mut out;
    let _ = writeln!(w, "env = {}", sc.env);
    let _ = writeln!(w, "duration = {}", sc.duration_s);
    let _ = writeln!(w, "seed = {}", sc.seed);
    if let Some(path) = &sc.trace_path {
        let _ = writeln!(w, "trace = {path}");
    }
    for a in &sc.agents {
        let _ = writeln!(w, "\n[agent]");
        let _ = writeln!(w, "tuner = {}", a.tuner);
        let _ = writeln!(w, "start = {}", a.start_s);
        if let Some(leave) = a.leave_s {
            let _ = writeln!(w, "leave = {leave}");
        }
        let _ = writeln!(w, "dataset = {}", a.dataset);
    }
    for b in &sc.background {
        if b.demand_mbps <= 0.0 {
            continue; // parse() drops zero-demand flows; stay in its image
        }
        let _ = writeln!(w, "\n[background]");
        let _ = writeln!(w, "start = {}", b.start_s);
        let _ = writeln!(w, "end = {}", b.end_s);
        let _ = writeln!(w, "mbps = {}", b.demand_mbps);
        let _ = writeln!(w, "connections = {}", b.connections);
    }
    for e in &sc.events {
        let _ = writeln!(w, "\n[event]");
        let _ = writeln!(w, "at = {}", e.at_s);
        match e.action {
            EventAction::LinkCapacityFactor { resource, factor } => {
                let _ = writeln!(w, "action = link_capacity");
                if let Some(r) = resource {
                    let _ = writeln!(w, "resource = {r}");
                }
                let _ = writeln!(w, "factor = {factor}");
            }
            EventAction::LossFloor { rate } => {
                let _ = writeln!(w, "action = loss_floor");
                let _ = writeln!(w, "rate = {rate}");
            }
            EventAction::DiskThrottleFactor { factor } => {
                let _ = writeln!(w, "action = disk_throttle");
                let _ = writeln!(w, "factor = {factor}");
            }
            EventAction::RttShift { rtt_s } => {
                let _ = writeln!(w, "action = rtt");
                let _ = writeln!(w, "rtt_s = {rtt_s}");
            }
            EventAction::KillAgent { agent } => {
                let _ = writeln!(w, "action = kill");
                let _ = writeln!(w, "agent = {agent}");
            }
            EventAction::ReviveAgent { agent } => {
                let _ = writeln!(w, "action = revive");
                let _ = writeln!(w, "agent = {agent}");
            }
        }
    }
    if let Some(f) = &sc.fleet {
        let _ = writeln!(w, "\n[fleet]");
        let links: Vec<String> = f.links_mbps.iter().map(|c| c.to_string()).collect();
        let _ = writeln!(w, "links = {}", links.join(", "));
        let _ = writeln!(w, "transfers = {}", f.transfers);
        let _ = writeln!(w, "arrivals_per_min = {}", f.arrivals_per_min);
        let _ = writeln!(w, "mean_file_mb = {}", f.mean_file_mb);
        let _ = writeln!(w, "anchor_gb = {}", f.anchor_gb);
        let _ = writeln!(w, "tuner = {}", f.tuner);
        // Scale-engine keys, emitted only off their defaults so classic
        // fleet scenarios keep their canonical form.
        if let Some(t) = &f.topology {
            let _ = writeln!(w, "topology = {t}");
        }
        let d = FleetSpec::default();
        if f.diurnal != d.diurnal {
            let _ = writeln!(w, "diurnal = {}", f.diurnal);
        }
        if f.failures != d.failures {
            let _ = writeln!(w, "failures = {}", f.failures);
        }
        if f.tenants != d.tenants {
            let _ = writeln!(w, "tenants = {}", f.tenants);
        }
        if f.shards != d.shards {
            let _ = writeln!(w, "shards = {}", f.shards);
        }
    }
    out
}

/// A dataset constructor and its argument: a file count, or the fixed
/// generator seed.
type DatasetCtor = (fn(u64) -> Dataset, u64);

/// What a `dataset =` value names. Checking a name builds nothing: the
/// seeded generators draw tens of thousands of sizes.
pub(crate) fn dataset_ctor(spec: &str) -> Result<DatasetCtor, String> {
    if let Some(count) = spec.strip_prefix("1gb:") {
        return match count.parse::<u64>() {
            Ok(n) if n.checked_mul(GIB).is_some() => Ok((Dataset::uniform_1gb, n)),
            _ => Err(format!(
                "dataset {spec}: the count must be a whole number of 1 GiB files \
                 totalling less than 2^64 bytes"
            )),
        };
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

/// Drive the `[agent]` sections through the shared runner.
fn run_agents(sc: &Scenario, tracer: &Tracer) -> Result<RunTrace, ParseError> {
    let env = resolve_env(&sc.env)
        .ok_or_else(|| ParseError(format!("unknown environment {:?}", sc.env)))?;
    let max_cc = env.max_concurrency;
    let mut sim = Simulation::new(env, sc.seed);
    sim.set_tracer(tracer.clone());
    let mut harness = SimHarness::new(sim);
    for bg in &sc.background {
        harness.sim_mut().add_background_flow(*bg);
    }
    // Fallible form: a scenario file with a non-finite or out-of-order
    // event time is a parse-level error, not a panic.
    harness
        .sim_mut()
        .try_add_events(sc.events.iter().copied())
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
    Ok(runner.run(&mut harness, plans, sc.duration_s))
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
        let trace = run_agents(sc, &tracer)?;
        return Ok((Outcome::Agents(trace), tracer.take_log()));
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
        let out = falcon_fleet::run_campaign_with_tracer(&spec, tracer);
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
        "# scenario env={} duration={:.0}s agents={}\n{:<4} {:<26} {:>12} {:>10} {:>10}\n",
        sc.env,
        sc.duration_s,
        sc.agents.len(),
        "id",
        "tuner",
        "avg_gbps",
        "tail_gbps",
        "done_at_s"
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
        let text = "\
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
            ("[agent]\ndataset = 1gb:many\n", "line 2: dataset 1gb:many"),
            ("[agent]\ndataset = 1gb:-1\n", "line 2: dataset 1gb:-1"),
            (
                "[agent]\ndataset = 1gb:17179869184\n", // 2^34 GiB = 2^64 bytes
                "line 2: dataset 1gb:17179869184",
            ),
            (
                "[agent]\ndataset = 1gb:18446744073709551615\n",
                "line 2: dataset 1gb:18446744073709551615",
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
        ] {
            let e = parse(text).unwrap_err().0;
            assert!(e.starts_with(want), "{text:?}: {e}");
        }
        // The scale keys are fine on either side of `topology`.
        let sc = parse("[fleet]\nshards = 3\ntopology = dtn:2x2\ndiurnal = 0.5\n").unwrap();
        assert_eq!(sc.fleet.unwrap().shards, 3);
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
            ("diurnal = 1.5", "line 3: diurnal: amplitude"),
            ("diurnal = -0.1", "line 3: diurnal: amplitude"),
            ("tenants = 0", "line 3: tenants: must be >= 1"),
            ("shards = 0", "line 3: shards: must be >= 1"),
        ] {
            let e = parse(&format!("[fleet]\ntopology = dtn:2x2\n{key}\n"))
                .unwrap_err()
                .0;
            assert!(e.starts_with(want), "{key}: {e}");
        }
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
