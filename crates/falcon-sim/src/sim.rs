//! The fluid simulation.
//!
//! Between any two state-change instants (a scheduled
//! [`EnvironmentEvent`], a background-flow edge) the per-connection
//! allocation *targets* are constant — they depend only on settings,
//! environment, and which background flows are active, never on the ramp
//! state. The discrete-event stepper exploits that:
//! [`Simulation::run_until`] advances segment by segment, applying events
//! at their exact times and integrating each [`falcon_tcp::RateRamp`] in
//! closed form across the whole segment, so an idle hour costs the same as
//! an idle millisecond. The fixed-tick stepper it replaced is kept as a
//! differential-testing oracle in [`oracle`]; it splits ticks at the same
//! interior state-change times, so the two agree on event timing exactly
//! and differ only by the tick-quantization of ramp sampling.
//!
//! A segment reuses the previous segment's targets unless one of those
//! inputs changed since (`StepScratch::targets` lists what invalidates
//! them). To rebuild the targets the simulator:
//!
//! 1. Builds the set of active connections (each agent contributes
//!    `concurrency × parallelism` connections; background flows contribute
//!    theirs), each capped by the tightest per-process disk throttle divided
//!    across its file's parallel sockets.
//! 2. Computes the packet-loss rate at the bottleneck link from the aggregate
//!    *offered* (upstream-capped) load and the total connection count
//!    ([`falcon_tcp::loss_rate`]).
//! 3. Caps every connection by its congestion-control response at the
//!    effective loss-event rate (bursty queue-tail drops hit several packets
//!    of one window at once, so the per-flow loss-*event* rate is the packet
//!    loss rate divided by [`Simulation::LOSS_EVENT_BURST`]).
//! 4. Allocates rates by weighted max-min progressive filling over all path
//!    resources (with end-host contention eroding disk/NIC capacity at very
//!    high stream counts).
//!
//! Every segment then advances each connection's [`falcon_tcp::RateRamp`]
//! toward its allocation, with one `e^(−Δ/τ)` per distinct τ
//! ([`falcon_tcp::DecayMemo`]), and accrues goodput `rate × (1 − loss)`.
//!
//! Sampling (`take_sample`) returns interval-averaged metrics with
//! multiplicative Gaussian measurement noise, which is what a Falcon monitor
//! thread would observe on a real system.

use falcon_tcp::{DecayMemo, RateRamp};
use falcon_trace::{TraceEvent, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alloc::{weighted_max_min_allocate_into, AllocScratch, WeightedStreamDemand};
use crate::env::Environment;
use crate::events::{EnvironmentEvent, EventAction, EventScheduleError};

pub mod oracle;

/// Handle to an agent (transfer task) registered with the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AgentHandle(usize);

/// Application-layer settings of one transfer task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentSettings {
    /// Number of files transferred simultaneously (file threads/processes).
    pub concurrency: u32,
    /// TCP connections per file.
    pub parallelism: u32,
    /// Fraction of wall time each file thread spends actually moving bytes
    /// (1.0 = no startup gaps). The transfer layer derives this from dataset
    /// file sizes and the pipelining depth.
    pub efficiency: f64,
    /// Per-connection fair-share weight at saturated resources (default
    /// 1.0 — the paper's same-RTT assumption, footnote 1). Set below 1 to
    /// model a longer-RTT agent whose loss-based flows claim less than an
    /// equal share.
    pub share_weight: f64,
}

impl AgentSettings {
    /// Concurrency-only settings (parallelism 1, fully efficient).
    pub fn with_concurrency(concurrency: u32) -> Self {
        AgentSettings {
            concurrency,
            parallelism: 1,
            efficiency: 1.0,
            share_weight: 1.0,
        }
    }

    /// Total TCP connections this setting creates (`n × p`).
    pub fn total_connections(&self) -> u32 {
        self.concurrency.saturating_mul(self.parallelism)
    }
}

impl Default for AgentSettings {
    fn default() -> Self {
        AgentSettings::with_concurrency(1)
    }
}

/// A scripted non-agent flow crossing only the bottleneck link (cross
/// traffic from other users of the shared network).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackgroundFlow {
    /// Activation time (seconds).
    pub start_s: f64,
    /// Deactivation time (seconds); `f64::INFINITY` for permanent.
    pub end_s: f64,
    /// Aggregate demand of the flow (Mbps).
    pub demand_mbps: f64,
    /// Number of TCP connections it consists of (affects the loss model).
    pub connections: u32,
}

/// Interval-averaged observation returned by [`Simulation::take_sample`].
#[derive(Debug, Clone, Copy)]
pub struct AgentSample {
    /// Aggregate goodput of the agent over the interval (Mbps), with
    /// measurement noise applied.
    pub throughput_mbps: f64,
    /// Average per-file-thread goodput (Mbps): `throughput / concurrency`.
    pub per_thread_mbps: f64,
    /// Time-averaged packet loss rate over the interval.
    pub loss_rate: f64,
    /// Settings in effect when the sample was taken.
    pub settings: AgentSettings,
    /// Length of the sampled interval (seconds).
    pub interval_s: f64,
}

/// Reusable per-segment working memory. `prepare_targets` clears and
/// refills these buffers instead of allocating fresh vectors, and only
/// when `targets` is `None`: a segment whose inputs are unchanged reuses
/// `rates`, `owners`, `agent_survival` and `current_loss` as they are.
#[derive(Debug, Default)]
struct StepScratch {
    /// The targets the buffers hold, `None` once an input changed. Set to
    /// `None` by `push_agent`, `remove_agent`, `try_set_settings` on a
    /// live agent whose settings differ, `kill_agent`, `revive_agent`,
    /// every fired event and `add_background_flow`; `prepare_targets`
    /// also drops them at the next background-flow edge.
    targets: Option<Targets>,
    streams: Vec<WeightedStreamDemand>,
    /// Agent index owning each agent stream (parallel to the prefix of
    /// `streams` before background flows).
    owners: Vec<usize>,
    capacities: Vec<f64>,
    rates: Vec<f64>,
    alloc: AllocScratch,
    /// Routed-mode working memory (only touched when some agent has a
    /// custom path): per-resource offered load, connection counts, link
    /// loss, stream counts, and per-agent survival / CCA caps.
    link_offered: Vec<f64>,
    link_conns: Vec<u32>,
    link_loss: Vec<f64>,
    res_streams: Vec<u32>,
    agent_survival: Vec<f64>,
    agent_cca_cap: Vec<f64>,
}

/// What `prepare_targets` returns for the targets in `StepScratch`, and
/// how long the active background flows they were built for stay active.
#[derive(Debug, Clone, Copy)]
struct Targets {
    routed: bool,
    loss: f64,
    /// The first background-flow start or end after the build time.
    until_s: f64,
}

#[derive(Debug)]
struct AgentState {
    alive: bool,
    /// Resources this agent's route crosses (`None` = the full end-to-end
    /// path, i.e. every resource — the classic single-path mode).
    path_mask: Option<u64>,
    settings: AgentSettings,
    ramps: Vec<RateRamp>,
    /// Megabits delivered since the last sample.
    delivered_mb: f64,
    /// Megabits delivered over the agent's whole lifetime. Monotonic:
    /// never reset by sampling, kills, or revives, so harnesses can do
    /// exact byte accounting from deltas under variable-length advances.
    total_delivered_mb: f64,
    /// ∫ loss dt since the last sample.
    loss_integral: f64,
    /// Seconds since the last sample.
    sample_clock_s: f64,
    /// Current instantaneous aggregate goodput (Mbps).
    instant_mbps: f64,
}

/// The fluid simulation. Deterministic given construction seed and call
/// sequence.
///
/// # Examples
///
/// ```
/// use falcon_sim::{AgentSettings, Environment, Simulation};
///
/// let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), 1);
/// let agent = sim.add_agent();
/// sim.set_settings(agent, AgentSettings::with_concurrency(10));
/// sim.run_for(30.0);
/// let sample = sim.take_sample(agent);
/// // 10 processes × 100 Mbps saturate the 1 Gbps link.
/// assert!(sample.throughput_mbps > 900.0);
/// ```
#[derive(Debug)]
pub struct Simulation {
    env: Environment,
    /// The environment as constructed; scheduled events scale *baseline*
    /// values so a restore factor of 1.0 is exact.
    baseline_env: Environment,
    agents: Vec<AgentState>,
    background: Vec<BackgroundFlow>,
    /// Scheduled environment events, sorted by time; `next_event` indexes
    /// the first one that has not fired yet.
    events: Vec<EnvironmentEvent>,
    next_event: usize,
    /// Scripted floor on the end-to-end loss rate (see
    /// [`EventAction::LossFloor`]).
    loss_floor: f64,
    time_s: f64,
    current_loss: f64,
    rng: StdRng,
    scratch: StepScratch,
    tracer: Tracer,
}

impl Simulation {
    /// Packets lost per congestion event: queue-tail drops are bursty and
    /// synchronized, so the per-flow loss-*event* rate seen by the congestion
    /// controller is far below the raw packet-loss rate; we divide by this
    /// factor before applying the response function.
    pub const LOSS_EVENT_BURST: f64 = 25.0;

    /// Create a simulation of `env`, seeded deterministically.
    pub fn new(env: Environment, seed: u64) -> Self {
        Simulation {
            baseline_env: env.clone(),
            env,
            agents: Vec::new(),
            background: Vec::new(),
            events: Vec::new(),
            next_event: 0,
            loss_floor: 0.0,
            time_s: 0.0,
            current_loss: 0.0,
            rng: StdRng::seed_from_u64(seed),
            scratch: StepScratch::default(),
            tracer: Tracer::default(),
        }
    }

    /// Install a tracer. The simulation stamps sim time on it each step and
    /// emits environment events, step counters, and a loss histogram.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The environment being simulated.
    pub fn env(&self) -> &Environment {
        &self.env
    }

    /// Current simulated time (seconds).
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Register a new transfer task with default settings, crossing the
    /// full end-to-end path (every resource in the environment).
    pub fn add_agent(&mut self) -> AgentHandle {
        self.push_agent(None)
    }

    /// Register a transfer task routed over a subset of the environment's
    /// resources. Bit `i` of `mask` set means the route crosses resource
    /// `i`; the transfer is constrained by the minimum-capacity resource on
    /// its route, and loss accumulates across every congested
    /// `NetworkLink` hop it traverses.
    ///
    /// Once any live agent has a custom path, the simulation switches to
    /// routed stepping: per-link loss models fed by the offered load of the
    /// streams actually crossing each link. Simulations where every agent
    /// uses [`Simulation::add_agent`] keep the original single-path
    /// arithmetic bit-for-bit.
    pub fn add_agent_on_path(&mut self, mask: u64) -> AgentHandle {
        let n = self.env.resources.len();
        // falcon-lint::allow(panic-safety, reason = "construction-time validation of a programmer-supplied route mask")
        assert!(
            mask != 0 && (n >= 64 || mask >> n == 0),
            "path mask {mask:#b} must select at least one of the {n} resources"
        );
        self.push_agent(Some(mask))
    }

    fn push_agent(&mut self, path_mask: Option<u64>) -> AgentHandle {
        self.scratch.targets = None;
        self.agents.push(AgentState {
            alive: true,
            path_mask,
            settings: AgentSettings::default(),
            ramps: vec![RateRamp::new(self.env.rtt_s)],
            delivered_mb: 0.0,
            total_delivered_mb: 0.0,
            loss_integral: 0.0,
            sample_clock_s: 0.0,
            instant_mbps: 0.0,
        });
        AgentHandle(self.agents.len() - 1)
    }

    /// The resource mask an agent's route crosses (the full-path mask for
    /// agents registered via [`Simulation::add_agent`]).
    pub fn path_mask(&self, h: AgentHandle) -> u64 {
        self.agents[h.0]
            .path_mask
            .unwrap_or(self.env.full_path_mask())
    }

    /// Remove a transfer task (e.g., its dataset completed).
    pub fn remove_agent(&mut self, h: AgentHandle) {
        self.scratch.targets = None;
        self.agents[h.0].alive = false;
        self.agents[h.0].ramps.clear();
    }

    /// Whether the agent is still registered.
    pub fn is_alive(&self, h: AgentHandle) -> bool {
        self.agents[h.0].alive
    }

    /// Apply new application-layer settings to an agent. Added connections
    /// start from zero rate (connection-establishment transient); removed
    /// connections disappear immediately.
    pub fn set_settings(&mut self, h: AgentHandle, settings: AgentSettings) {
        // falcon-lint::allow(panic-safety, reason = "documented panicking API; try_set_settings is the fallible form")
        assert!(
            self.try_set_settings(h, settings),
            "set_settings on dead agent {}: it was removed or killed; use \
             try_set_settings (or revive_agent) if the agent may be gone",
            h.0
        );
    }

    /// Apply settings if the agent is still alive; returns whether it was.
    /// The non-panicking form of [`Simulation::set_settings`] for callers
    /// racing against completion, departure, or a scripted kill.
    #[must_use]
    pub fn try_set_settings(&mut self, h: AgentHandle, settings: AgentSettings) -> bool {
        debug_assert!(settings.concurrency >= 1, "concurrency must be >= 1");
        debug_assert!(settings.parallelism >= 1, "parallelism must be >= 1");
        debug_assert!(
            (0.0..=1.0).contains(&settings.efficiency),
            "efficiency must be in [0, 1]"
        );
        debug_assert!(settings.share_weight > 0.0, "share weight must be positive");
        let rtt = self.env.rtt_s;
        let st = &mut self.agents[h.0];
        // Settings are remembered even for a dead agent (a revive rebuilds
        // the pool from them), but the caller is told the agent is gone.
        let changed = st.settings != settings;
        st.settings = settings;
        if !st.alive {
            return false;
        }
        if changed {
            self.scratch.targets = None;
        }
        let want = settings.total_connections() as usize;
        while st.ramps.len() < want {
            st.ramps.push(RateRamp::new(rtt));
        }
        st.ramps.truncate(want);
        true
    }

    /// Current settings of an agent.
    pub fn settings(&self, h: AgentHandle) -> AgentSettings {
        self.agents[h.0].settings
    }

    /// Script a background cross-traffic flow.
    pub fn add_background_flow(&mut self, flow: BackgroundFlow) {
        self.scratch.targets = None;
        self.background.push(flow);
    }

    /// Schedule an environment event. Events may be added in any order;
    /// they fire at the exact simulated time `at_s` (an `at_s` at or before
    /// the current time fires at the start of the next advance).
    ///
    /// Panics with the offending event's action and schedule index if the
    /// event is rejected; [`Simulation::try_add_event`] is the fallible
    /// form for externally-supplied schedules (e.g. scenario files).
    pub fn add_event(&mut self, event: EnvironmentEvent) {
        if let Err(err) = self.try_add_event(event) {
            // falcon-lint::allow(panic-safety, reason = "documented panicking API; try_add_event is the fallible form")
            panic!("{err}");
        }
    }

    /// Schedule an environment event, rejecting non-finite times and times
    /// before an already-fired event (the past cannot be rewritten). The
    /// non-panicking form of [`Simulation::add_event`].
    pub fn try_add_event(&mut self, event: EnvironmentEvent) -> Result<(), EventScheduleError> {
        let last_fired_at_s = self.next_event.checked_sub(1).map(|i| self.events[i].at_s);
        if !event.at_s.is_finite() || last_fired_at_s.is_some_and(|t| event.at_s < t) {
            return Err(EventScheduleError {
                index: self.events.len(),
                at_s: event.at_s,
                action: event.action,
                last_fired_at_s,
            });
        }
        self.events.push(event);
        self.events[self.next_event..].sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        Ok(())
    }

    /// Schedule several events at once.
    ///
    /// Panics on the first rejected event; [`Simulation::try_add_events`]
    /// is the fallible form.
    pub fn add_events(&mut self, events: impl IntoIterator<Item = EnvironmentEvent>) {
        for e in events {
            self.add_event(e);
        }
    }

    /// Schedule several events, stopping at the first rejected one. Events
    /// before the failure remain scheduled.
    pub fn try_add_events(
        &mut self,
        events: impl IntoIterator<Item = EnvironmentEvent>,
    ) -> Result<(), EventScheduleError> {
        for e in events {
            self.try_add_event(e)?;
        }
        Ok(())
    }

    /// The scripted events that have not fired yet.
    pub fn pending_events(&self) -> &[EnvironmentEvent] {
        &self.events[self.next_event..]
    }

    /// Fire all events due at or before the current time.
    fn apply_due_events(&mut self) {
        while self.next_event < self.events.len()
            && self.events[self.next_event].at_s <= self.time_s
        {
            let action = self.events[self.next_event].action;
            self.next_event += 1;
            self.apply_event_action(action);
        }
    }

    fn apply_event_action(&mut self, action: EventAction) {
        self.scratch.targets = None;
        // Mirror the scripted action into the trace before applying it, so
        // a trace reader can line environment shifts up with decisions.
        self.tracer.emit(|| {
            let (label, value) = match action {
                EventAction::LinkCapacityFactor { factor, .. } => ("link_capacity_factor", factor),
                EventAction::LossFloor { rate } => ("loss_floor", rate),
                EventAction::DiskThrottleFactor { factor } => ("disk_throttle_factor", factor),
                EventAction::RttShift { rtt_s } => ("rtt_shift", rtt_s),
                EventAction::KillAgent { agent } => ("kill_agent", agent as f64),
                EventAction::ReviveAgent { agent } => ("revive_agent", agent as f64),
            };
            TraceEvent::Environment {
                action: label.to_string(),
                value,
            }
        });
        match action {
            EventAction::LinkCapacityFactor { resource, factor } => {
                debug_assert!(factor > 0.0, "capacity factor must be positive");
                let idx = resource.unwrap_or(self.env.bottleneck_link);
                let base = &self.baseline_env.resources[idx];
                let r = &mut self.env.resources[idx];
                r.capacity_mbps = base.capacity_mbps * factor;
                r.per_stream_cap_mbps = base.per_stream_cap_mbps.map(|c| c * factor);
            }
            EventAction::LossFloor { rate } => {
                debug_assert!((0.0..1.0).contains(&rate), "loss floor must be in [0, 1)");
                self.loss_floor = rate;
            }
            EventAction::DiskThrottleFactor { factor } => {
                debug_assert!(factor > 0.0, "disk throttle factor must be positive");
                for (r, base) in self
                    .env
                    .resources
                    .iter_mut()
                    .zip(self.baseline_env.resources.iter())
                    .filter(|(r, _)| r.kind.is_disk())
                {
                    r.per_stream_cap_mbps = base.per_stream_cap_mbps.map(|c| c * factor);
                }
            }
            EventAction::RttShift { rtt_s } => {
                debug_assert!(rtt_s > 0.0, "RTT must be positive");
                self.env.rtt_s = rtt_s;
            }
            EventAction::KillAgent { agent } => {
                if agent < self.agents.len() {
                    self.kill_agent(AgentHandle(agent));
                }
            }
            EventAction::ReviveAgent { agent } => {
                if agent < self.agents.len() {
                    self.revive_agent(AgentHandle(agent));
                }
            }
        }
    }

    /// Kill an agent's transfer process: it stops moving bytes but keeps
    /// its registration and settings, so [`Simulation::revive_agent`] can
    /// bring it back. Idempotent.
    pub fn kill_agent(&mut self, h: AgentHandle) {
        self.scratch.targets = None;
        let a = &mut self.agents[h.0];
        a.alive = false;
        a.ramps.clear();
        a.instant_mbps = 0.0;
    }

    /// Revive a killed agent: its connection pool is rebuilt from its
    /// registered settings, each connection ramping up from zero rate as a
    /// freshly opened socket would. Idempotent for agents already alive.
    pub fn revive_agent(&mut self, h: AgentHandle) {
        let rtt = self.env.rtt_s;
        let a = &mut self.agents[h.0];
        if a.alive {
            return;
        }
        self.scratch.targets = None;
        a.alive = true;
        a.ramps = (0..a.settings.total_connections())
            .map(|_| RateRamp::new(rtt))
            .collect();
        // A fresh process starts a fresh measurement interval: drop
        // whatever partial accounting the dead period accumulated.
        a.delivered_mb = 0.0;
        a.loss_integral = 0.0;
        a.sample_clock_s = 0.0;
    }

    /// Current packet-loss rate at the bottleneck link.
    pub fn current_loss(&self) -> f64 {
        self.current_loss
    }

    /// Total live TCP connections across all agents (excluding background).
    pub fn total_connections(&self) -> u32 {
        self.agents
            .iter()
            .filter(|a| a.alive)
            .map(|a| a.settings.total_connections())
            .sum()
    }

    /// Instantaneous aggregate goodput of an agent (Mbps), noise-free.
    ///
    /// Panics if the agent was removed or killed; use
    /// [`Simulation::try_instantaneous_rate_mbps`] when it may be gone.
    pub fn instantaneous_rate_mbps(&self, h: AgentHandle) -> f64 {
        self.try_instantaneous_rate_mbps(h).unwrap_or_else(|| {
            // falcon-lint::allow(panic-safety, reason = "documented panicking API; try_instantaneous_rate_mbps is the fallible form")
            panic!(
                "instantaneous_rate_mbps on dead agent {}: it was removed or \
                 killed; use try_instantaneous_rate_mbps if the agent may be \
                 gone",
                h.0
            )
        })
    }

    /// [`Simulation::instantaneous_rate_mbps`] that returns `None` for a
    /// dead agent instead of panicking.
    pub fn try_instantaneous_rate_mbps(&self, h: AgentHandle) -> Option<f64> {
        let a = &self.agents[h.0];
        a.alive.then_some(a.instant_mbps)
    }

    /// Advance simulated time to `t_end_s`, walking from one state-change
    /// time to the next and integrating ramp dynamics analytically across
    /// each segment (O(1) per segment, however long). Scheduled events fire
    /// at their exact `at_s`. Times at or before the current time are a
    /// no-op.
    pub fn run_until(&mut self, t_end_s: f64) {
        debug_assert!(t_end_s.is_finite(), "run_until target must be finite");
        while self.time_s < t_end_s {
            self.run_segment(t_end_s);
        }
    }

    /// Fire the events due now, then integrate up to the next
    /// state-change time or `t_end_s`, whichever comes first.
    fn run_segment(&mut self, t_end_s: f64) {
        self.tracer.set_time(self.time_s);
        self.apply_due_events();
        let boundary = self.next_boundary_after(self.time_s).min(t_end_s);
        let dt = boundary - self.time_s;
        let (routed, loss) = self.prepare_targets();
        self.integrate_exact(dt, routed, loss);
        self.time_s = boundary;
    }

    /// Advance by `dt_s` seconds.
    pub fn advance(&mut self, dt_s: f64) {
        debug_assert!(dt_s >= 0.0, "advance span must be non-negative");
        self.run_until(self.time_s + dt_s);
    }

    /// Earliest state-change time strictly after `t`: the next unfired
    /// scheduled event and the next background-flow start/end edge.
    /// Allocation targets are constant between such boundaries, which is
    /// what lets a whole segment integrate in closed form.
    fn next_boundary_after(&self, t: f64) -> f64 {
        let next_event = match self.events.get(self.next_event) {
            Some(e) if e.at_s > t => e.at_s,
            _ => f64::INFINITY,
        };
        next_event.min(self.next_background_edge_after(t))
    }

    /// Earliest background-flow start or end strictly after `t`.
    fn next_background_edge_after(&self, t: f64) -> f64 {
        self.background
            .iter()
            .flat_map(|bg| [bg.start_s, bg.end_s])
            .filter(|&edge| edge > t)
            .fold(f64::INFINITY, f64::min)
    }

    /// Sections 1–4 of the per-segment pipeline: build connection demands,
    /// compute loss, apply congestion-control caps, and run the weighted
    /// max-min allocation into `scratch.rates` — or reuse all of that while
    /// `scratch.targets` holds. Pure in the ramp state: targets depend only
    /// on settings, environment, and background activity at the current
    /// time. Returns `(routed, loss)`.
    fn prepare_targets(&mut self) -> (bool, f64) {
        let t = self.time_s;
        if let Some(c) = self.scratch.targets.filter(|c| t < c.until_s) {
            self.tracer.incr("sim.alloc_skips");
            self.tracer.incr("sim.steps");
            self.tracer.observe("sim.loss_rate", c.loss);
            return (c.routed, c.loss);
        }
        let bottleneck = self.env.bottleneck_link;
        let link_capacity = self.env.resources[bottleneck].capacity_mbps;

        // --- 1. Build connection-level demands. ------------------------------
        // Tightest per-process disk cap along the path (None → unbounded).
        let per_proc_cap: f64 = self
            .env
            .resources
            .iter()
            .filter(|r| r.kind.is_disk())
            .filter_map(|r| r.per_stream_cap_mbps)
            .fold(f64::INFINITY, f64::min);

        // Streams are ordered: for each alive agent, its n*p connections;
        // then one stream per active background flow. The vectors live in
        // `self.scratch` and are cleared and refilled, so a rebuild
        // allocates nothing once the buffers have grown to size.
        let full_mask = self.env.full_path_mask();
        let link_mask: u64 = 1u64 << bottleneck;

        self.scratch.streams.clear();
        self.scratch.owners.clear();
        let mut offered_mbps = 0.0;
        let mut n_conns_total: u32 = 0;

        let routed = self.agents.iter().any(|a| a.alive && a.path_mask.is_some());

        for (idx, a) in self.agents.iter().enumerate() {
            if !a.alive {
                continue;
            }
            let s = a.settings;
            let mask = a.path_mask.unwrap_or(full_mask);
            // The per-process throttle applies to the file thread; its `p`
            // sockets split that budget. Startup-gap efficiency scales the
            // thread's usable demand.
            let per_conn_cap = per_proc_cap / f64::from(s.parallelism) * s.efficiency;
            for _ in 0..s.total_connections() {
                self.scratch.streams.push(WeightedStreamDemand {
                    cap_mbps: per_conn_cap,
                    resource_mask: mask,
                    weight: s.share_weight,
                });
                self.scratch.owners.push(idx);
            }
            if per_conn_cap.is_finite() {
                offered_mbps += per_conn_cap * f64::from(s.total_connections());
            } else {
                // No disk throttle: flows push as hard as the link allows.
                offered_mbps += link_capacity;
            }
            n_conns_total += s.total_connections();
        }

        // Offered load at the shared link cannot exceed what upstream
        // resources (source disk, source NIC) can physically emit.
        let upstream_cap: f64 = self
            .env
            .resources
            .iter()
            .take(bottleneck)
            .map(|r| r.effective_capacity_mbps(n_conns_total))
            .fold(f64::INFINITY, f64::min);
        offered_mbps = offered_mbps.min(upstream_cap);

        let n_agent_streams = self.scratch.streams.len();
        for bg in &self.background {
            if t >= bg.start_s && t < bg.end_s {
                // Each background connection competes as its own max-min
                // stream, splitting the flow's demand.
                let conns = bg.connections.max(1);
                let per_conn = bg.demand_mbps / f64::from(conns);
                for _ in 0..conns {
                    self.scratch.streams.push(WeightedStreamDemand {
                        cap_mbps: per_conn,
                        resource_mask: link_mask,
                        weight: 1.0,
                    });
                }
                offered_mbps += bg.demand_mbps;
                n_conns_total += bg.connections;
            }
        }

        // --- 2. Loss at every network link. -----------------------------------
        // Each link drops independently; the end-to-end survival
        // probability is the product of per-link survivals.
        //
        // Single-path mode: offered load at a link is the shared aggregate
        // capped by everything upstream of it, and every agent sees the
        // same end-to-end loss. (Background flows traverse only the
        // designated bottleneck link.)
        //
        // Routed mode: each link's offered load and connection count come
        // from the streams that actually cross it, and each agent's loss is
        // the survival product over the `NetworkLink` hops on *its* route.
        let loss: f64;
        if !routed {
            let mut survival = 1.0f64;
            for (i, r) in self.env.resources.iter().enumerate() {
                if r.kind != crate::resource::ResourceKind::NetworkLink {
                    continue;
                }
                let upstream: f64 = self
                    .env
                    .resources
                    .iter()
                    .take(i)
                    .map(|u| u.effective_capacity_mbps(n_conns_total))
                    .fold(f64::INFINITY, f64::min);
                // `offered_mbps` already includes background demand and the
                // global upstream clamp from step 1; non-bottleneck links see
                // the transfer demand clamped by their own upstream.
                let link_offered = if i == bottleneck {
                    offered_mbps
                } else {
                    offered_mbps.min(upstream)
                };
                let l = falcon_tcp::loss_rate(
                    link_offered,
                    r.capacity_mbps,
                    n_conns_total,
                    self.env.rtt_s,
                    self.env.mss_bytes,
                );
                survival *= 1.0 - l;
            }
            loss = (1.0 - survival).clamp(0.0, 1.0).max(self.loss_floor);
            self.current_loss = loss;

            // --- 3. Congestion-control caps. ----------------------------------
            let loss_event_rate = loss / Self::LOSS_EVENT_BURST;
            let n_at_link = self.scratch.streams.len().max(1) as f64;
            let fair_share = link_capacity / n_at_link;
            let cca_cap = self.env.cca.sustainable_rate_mbps(
                loss_event_rate,
                self.env.rtt_s,
                self.env.mss_bytes,
                fair_share.max(link_capacity), // response-function cap only; share
                                               // enforcement happens in max-min
            );
            for st in self.scratch.streams.iter_mut().take(n_agent_streams) {
                st.cap_mbps = st.cap_mbps.min(cca_cap);
            }
        } else {
            loss = self.routed_loss_and_cca_caps(full_mask, n_agent_streams);
        }

        // --- 4. Max-min allocation over contended capacities. -----------------
        self.scratch.capacities.clear();
        if !routed {
            let stream_count = self.scratch.streams.len() as u32;
            self.scratch.capacities.extend(
                self.env
                    .resources
                    .iter()
                    .map(|r| r.effective_capacity_mbps(stream_count)),
            );
        } else {
            // End-host contention is per-resource in routed mode: only the
            // streams crossing a resource erode its effective capacity.
            let n_res = self.env.resources.len();
            self.scratch.res_streams.clear();
            self.scratch.res_streams.resize(n_res, 0);
            for st in &self.scratch.streams {
                for (i, count) in self.scratch.res_streams.iter_mut().enumerate() {
                    if st.resource_mask & (1u64 << i) != 0 {
                        *count += 1;
                    }
                }
            }
            for (r, &count) in self.env.resources.iter().zip(&self.scratch.res_streams) {
                self.scratch
                    .capacities
                    .push(r.effective_capacity_mbps(count));
            }
        }
        let until_s = self.next_background_edge_after(t);
        let scratch = &mut self.scratch;
        weighted_max_min_allocate_into(
            &scratch.streams,
            &scratch.capacities,
            &mut scratch.rates,
            &mut scratch.alloc,
        );
        scratch.targets = Some(Targets {
            routed,
            loss,
            until_s,
        });
        self.tracer.incr("sim.alloc_runs");
        self.tracer.incr("sim.steps");
        self.tracer.observe("sim.loss_rate", loss);
        (routed, loss)
    }

    /// Advance each ramp across the whole segment in closed form and
    /// accrue the *exact* integral of its rate curve
    /// ([`RateRamp::advance_integrated`]), so segment length does not
    /// affect accuracy and an idle segment costs O(connections), not
    /// O(ticks).
    fn integrate_exact(&mut self, dt_s: f64, routed: bool, loss: f64) {
        let mut segment = DecayMemo::new(dt_s);
        let mut cursor = 0usize;
        for (idx, a) in self.agents.iter_mut().enumerate() {
            if !a.alive {
                continue;
            }
            // In routed mode each agent's goodput survives its own path's
            // hops; single-path mode keeps the shared end-to-end loss.
            let (survival, agent_loss) = if routed {
                let s = self.scratch.agent_survival[idx];
                (s, 1.0 - s)
            } else {
                (1.0 - loss, loss)
            };
            let mut agg_end = 0.0;
            let mut delivered = 0.0;
            for ramp in a.ramps.iter_mut() {
                debug_assert_eq!(self.scratch.owners[cursor], idx);
                let target = self.scratch.rates[cursor];
                let (end_rate, integral) = ramp.advance_integrated(target, &mut segment);
                agg_end += end_rate * survival;
                delivered += integral * survival;
                cursor += 1;
            }
            a.instant_mbps = agg_end;
            a.delivered_mb += delivered;
            a.total_delivered_mb += delivered;
            a.loss_integral += agent_loss * dt_s;
            // falcon-lint::allow(float-time-accum, reason = "accrues exact DES segment lengths between samples and is reset at every sample read; bounded by one probe interval")
            a.sample_clock_s += dt_s;
        }
    }

    /// Megabits delivered by an agent over its whole lifetime, including
    /// while dead periods contributed nothing. Monotonic and never reset
    /// by sampling or revives; valid for removed agents too.
    pub fn delivered_mbits_total(&self, h: AgentHandle) -> f64 {
        self.agents[h.0].total_delivered_mb
    }

    /// Routed-mode loss: feed each `NetworkLink` loss model with the
    /// offered load and connection count of the streams that cross it,
    /// derive each agent's end-to-end survival over its own hops, and cap
    /// each agent's streams by the congestion-control response at its own
    /// loss-event rate and min-capacity hop. Returns the worst per-path
    /// loss (reported as [`Simulation::current_loss`]).
    fn routed_loss_and_cca_caps(&mut self, full_mask: u64, n_agent_streams: usize) -> f64 {
        use crate::resource::ResourceKind;
        let n_res = self.env.resources.len();
        let scratch = &mut self.scratch;
        scratch.link_offered.clear();
        scratch.link_offered.resize(n_res, 0.0);
        scratch.link_conns.clear();
        scratch.link_conns.resize(n_res, 0);
        for (pos, st) in scratch.streams.iter().enumerate() {
            // A throttled stream offers its cap. An unthrottled agent's
            // pool collectively pushes as hard as its tightest hop allows
            // (mirroring single-path mode, where an uncapped agent offers
            // the link capacity once, not once per connection).
            let demand = if st.cap_mbps.is_finite() {
                st.cap_mbps
            } else {
                let path_cap = self
                    .env
                    .resources
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| st.resource_mask & (1u64 << i) != 0)
                    .map(|(_, r)| r.capacity_mbps)
                    .fold(f64::INFINITY, f64::min);
                let pool = scratch
                    .owners
                    .get(pos)
                    .map_or(1, |&o| self.agents[o].settings.total_connections().max(1));
                path_cap / f64::from(pool)
            };
            for (i, r) in self.env.resources.iter().enumerate() {
                if r.kind == ResourceKind::NetworkLink && st.resource_mask & (1u64 << i) != 0 {
                    scratch.link_offered[i] += demand;
                    scratch.link_conns[i] += 1;
                }
            }
        }
        scratch.link_loss.clear();
        scratch.link_loss.resize(n_res, 0.0);
        for (i, r) in self.env.resources.iter().enumerate() {
            if r.kind == ResourceKind::NetworkLink && scratch.link_conns[i] > 0 {
                scratch.link_loss[i] = falcon_tcp::loss_rate(
                    scratch.link_offered[i],
                    r.capacity_mbps,
                    scratch.link_conns[i],
                    self.env.rtt_s,
                    self.env.mss_bytes,
                );
            }
        }
        scratch.agent_survival.clear();
        scratch.agent_survival.resize(self.agents.len(), 1.0);
        scratch.agent_cca_cap.clear();
        scratch
            .agent_cca_cap
            .resize(self.agents.len(), f64::INFINITY);
        let mut worst = 0.0f64;
        for (idx, a) in self.agents.iter().enumerate() {
            if !a.alive {
                continue;
            }
            let mask = a.path_mask.unwrap_or(full_mask);
            let mut survival = 1.0f64;
            let mut path_cap = f64::INFINITY;
            for (i, r) in self.env.resources.iter().enumerate() {
                if mask & (1u64 << i) != 0 {
                    path_cap = path_cap.min(r.capacity_mbps);
                    if r.kind == ResourceKind::NetworkLink {
                        survival *= 1.0 - scratch.link_loss[i];
                    }
                }
            }
            let l = (1.0 - survival).clamp(0.0, 1.0).max(self.loss_floor);
            scratch.agent_survival[idx] = 1.0 - l;
            scratch.agent_cca_cap[idx] = self.env.cca.sustainable_rate_mbps(
                l / Self::LOSS_EVENT_BURST,
                self.env.rtt_s,
                self.env.mss_bytes,
                path_cap,
            );
            worst = worst.max(l);
        }
        for (st, &owner) in scratch
            .streams
            .iter_mut()
            .take(n_agent_streams)
            .zip(&scratch.owners)
        {
            st.cap_mbps = st.cap_mbps.min(scratch.agent_cca_cap[owner]);
        }
        self.current_loss = worst;
        worst
    }

    /// Consume and return the interval metrics accumulated since the last
    /// call (or since the agent joined). Applies multiplicative Gaussian
    /// measurement noise to throughput.
    ///
    /// Panics if the agent was removed or killed — a dead process produces
    /// no measurements, and silently returning zeros would poison an
    /// optimizer's utility estimate. Use [`Simulation::try_take_sample`]
    /// when the agent may legitimately be gone.
    pub fn take_sample(&mut self, h: AgentHandle) -> AgentSample {
        self.try_take_sample(h).unwrap_or_else(|| {
            // falcon-lint::allow(panic-safety, reason = "documented panicking API; try_take_sample is the fallible form")
            panic!(
                "take_sample on dead agent {}: it was removed or killed; use \
                 try_take_sample if the agent may be gone",
                h.0
            )
        })
    }

    /// [`Simulation::take_sample`] that returns `None` for a dead agent
    /// instead of panicking.
    pub fn try_take_sample(&mut self, h: AgentHandle) -> Option<AgentSample> {
        if !self.agents[h.0].alive {
            return None;
        }
        let noise = self.sample_noise();
        let a = &mut self.agents[h.0];
        let dt = a.sample_clock_s.max(1e-9);
        let mut thr = (a.delivered_mb / dt) * noise;
        if thr < 0.0 {
            thr = 0.0;
        }
        let loss = a.loss_integral / dt;
        let sample = AgentSample {
            throughput_mbps: thr,
            per_thread_mbps: thr / f64::from(a.settings.concurrency.max(1)),
            loss_rate: loss,
            settings: a.settings,
            interval_s: a.sample_clock_s,
        };
        a.delivered_mb = 0.0;
        a.loss_integral = 0.0;
        a.sample_clock_s = 0.0;
        Some(sample)
    }

    /// One multiplicative noise factor `1 + σ·Z` (Box–Muller).
    fn sample_noise(&mut self) -> f64 {
        let sigma = self.env.noise_std_frac;
        // falcon-lint::allow(float-cmp, reason = "exact-zero sentinel means noise disabled; never the result of arithmetic")
        if sigma == 0.0 {
            return 1.0;
        }
        let u1: f64 = self.rng.gen::<f64>().max(1e-12);
        let u2: f64 = self.rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (1.0 + sigma * z).max(0.05)
    }

    /// Run the simulation for `duration_s`, without touching settings.
    /// Convenience for tests and warm-up phases: [`Simulation::advance`]
    /// under the name the experiments use.
    pub fn run_for(&mut self, duration_s: f64) {
        self.advance(duration_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Environment;
    use falcon_trace::TraceLog;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The two steppers the cross-checks run: the product path and the
    /// tick oracle, as `(name, run_for(sim, duration_s, dt_s))`.
    type RunFor = fn(&mut Simulation, f64, f64);
    const DES: RunFor = |sim, duration_s, _| sim.run_for(duration_s);
    const TICK: RunFor = oracle::run_for;
    const STEPPERS: [(&str, RunFor); 2] = [("des", DES), ("tick", TICK)];

    fn settled_sample(env: Environment, cc: u32, seconds: f64) -> AgentSample {
        let mut sim = Simulation::new(env.without_noise(), 7);
        let a = sim.add_agent();
        sim.set_settings(a, AgentSettings::with_concurrency(cc));
        sim.run_for(seconds);
        sim.take_sample(a)
    }

    #[test]
    fn single_process_is_throttled() {
        // Figure 3/4 topology: one process reads at 10 Mbps.
        let s = settled_sample(Environment::emulab_fig4(), 1, 30.0);
        assert!(
            (s.throughput_mbps - 10.0).abs() < 1.0,
            "got {}",
            s.throughput_mbps
        );
    }

    #[test]
    fn ten_processes_saturate_fig4_link() {
        let s = settled_sample(Environment::emulab_fig4(), 10, 60.0);
        assert!(s.throughput_mbps > 90.0, "got {}", s.throughput_mbps);
    }

    #[test]
    fn oversubscription_raises_loss_not_throughput() {
        let s10 = settled_sample(Environment::emulab_fig4(), 10, 60.0);
        let s32 = settled_sample(Environment::emulab_fig4(), 32, 60.0);
        // Paper Figure 4: still ~100 Mbps at 32 but ~10% loss.
        assert!(s32.throughput_mbps > 85.0, "got {}", s32.throughput_mbps);
        assert!(
            s32.loss_rate > 4.0 * s10.loss_rate,
            "loss {} vs {}",
            s32.loss_rate,
            s10.loss_rate
        );
        assert!(s32.loss_rate > 0.06, "loss at 32 was {}", s32.loss_rate);
    }

    #[test]
    fn throughput_concave_in_concurrency() {
        // More concurrency always helps until saturation, then flattens.
        let s1 = settled_sample(Environment::hpclab(), 1, 30.0);
        let s4 = settled_sample(Environment::hpclab(), 4, 30.0);
        let s9 = settled_sample(Environment::hpclab(), 9, 30.0);
        let s16 = settled_sample(Environment::hpclab(), 16, 30.0);
        assert!(s1.throughput_mbps < s4.throughput_mbps);
        assert!(s4.throughput_mbps < s9.throughput_mbps);
        // Marginal gain collapses after saturation.
        let gain_early = s4.throughput_mbps - s1.throughput_mbps;
        let gain_late = (s16.throughput_mbps - s9.throughput_mbps).max(0.0);
        assert!(gain_late < gain_early * 0.3);
    }

    #[test]
    fn hpclab_reaches_paper_range() {
        // Falcon reports >25 Gbps with ~9 concurrency.
        let s = settled_sample(Environment::hpclab(), 9, 30.0);
        assert!(
            s.throughput_mbps > 25_000.0,
            "got {} Mbps",
            s.throughput_mbps
        );
    }

    #[test]
    fn xsede_reaches_paper_range() {
        // Falcon reports ~5.4 Gbps.
        let s = settled_sample(Environment::xsede(), 10, 60.0);
        assert!(
            (5_000.0..6_000.0).contains(&s.throughput_mbps),
            "got {} Mbps",
            s.throughput_mbps
        );
    }

    #[test]
    fn campus_cluster_reaches_paper_range() {
        // Falcon reports ~9.2 Gbps (NIC-limited at 9.6).
        let s = settled_sample(Environment::campus_cluster(), 8, 30.0);
        assert!(
            (8_500.0..9_700.0).contains(&s.throughput_mbps),
            "got {} Mbps",
            s.throughput_mbps
        );
    }

    #[test]
    fn two_equal_agents_share_fairly() {
        let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), 3);
        let a = sim.add_agent();
        let b = sim.add_agent();
        sim.set_settings(a, AgentSettings::with_concurrency(10));
        sim.set_settings(b, AgentSettings::with_concurrency(10));
        sim.run_for(60.0);
        let sa = sim.take_sample(a);
        let sb = sim.take_sample(b);
        let ratio = sa.throughput_mbps / sb.throughput_mbps;
        assert!((0.95..1.05).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn throughput_proportional_to_connection_count_at_saturation() {
        // The congestion-game mechanism (HARP's late-comer advantage).
        let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), 3);
        let a = sim.add_agent();
        let b = sim.add_agent();
        sim.set_settings(a, AgentSettings::with_concurrency(5));
        sim.set_settings(b, AgentSettings::with_concurrency(10));
        sim.run_for(60.0);
        let sa = sim.take_sample(a);
        let sb = sim.take_sample(b);
        let ratio = sb.throughput_mbps / sa.throughput_mbps;
        assert!((1.7..2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn agent_departure_frees_capacity() {
        let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), 3);
        let a = sim.add_agent();
        let b = sim.add_agent();
        sim.set_settings(a, AgentSettings::with_concurrency(10));
        sim.set_settings(b, AgentSettings::with_concurrency(10));
        sim.run_for(40.0);
        sim.take_sample(a);
        sim.remove_agent(b);
        sim.run_for(40.0);
        let sa = sim.take_sample(a);
        assert!(sa.throughput_mbps > 900.0, "got {}", sa.throughput_mbps);
    }

    #[test]
    fn background_flow_takes_bandwidth_while_active() {
        let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), 3);
        let a = sim.add_agent();
        sim.set_settings(a, AgentSettings::with_concurrency(10));
        sim.add_background_flow(BackgroundFlow {
            start_s: 40.0,
            end_s: 80.0,
            demand_mbps: 600.0,
            connections: 6,
        });
        sim.run_for(40.0);
        let before = sim.take_sample(a);
        sim.run_for(40.0);
        let during = sim.take_sample(a);
        sim.run_for(40.0);
        let after = sim.take_sample(a);
        assert!(before.throughput_mbps > 950.0);
        assert!(during.throughput_mbps < 700.0, "{}", during.throughput_mbps);
        assert!(after.throughput_mbps > 900.0);
    }

    #[test]
    fn ramp_makes_short_samples_underestimate() {
        let env = Environment::emulab(100.0).without_noise();
        let mut sim = Simulation::new(env, 3);
        let a = sim.add_agent();
        sim.set_settings(a, AgentSettings::with_concurrency(10));
        sim.run_for(1.0);
        let early = sim.take_sample(a);
        sim.run_for(30.0);
        let late = sim.take_sample(a);
        assert!(early.throughput_mbps < 0.8 * late.throughput_mbps);
    }

    #[test]
    fn noise_is_reproducible_for_same_seed() {
        let run = |seed| {
            let mut sim = Simulation::new(Environment::xsede(), seed);
            let a = sim.add_agent();
            sim.set_settings(a, AgentSettings::with_concurrency(5));
            sim.run_for(10.0);
            sim.take_sample(a).throughput_mbps
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn efficiency_scales_throughput() {
        let env = Environment::xsede().without_noise();
        let mut sim = Simulation::new(env, 1);
        let a = sim.add_agent();
        sim.set_settings(
            a,
            AgentSettings {
                efficiency: 0.5,
                ..AgentSettings::with_concurrency(4)
            },
        );
        sim.run_for(40.0);
        let half = sim.take_sample(a);
        sim.set_settings(a, AgentSettings::with_concurrency(4));
        sim.run_for(40.0);
        let full = sim.take_sample(a);
        let ratio = half.throughput_mbps / full.throughput_mbps;
        assert!((0.4..0.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn parallelism_splits_process_budget() {
        // p sockets share the file thread's I/O budget, so cc=4, p=4 moves
        // no more data than cc=4, p=1 in a disk-limited network.
        let env = Environment::xsede().without_noise();
        let mut sim = Simulation::new(env, 1);
        let a = sim.add_agent();
        sim.set_settings(
            a,
            AgentSettings {
                parallelism: 4,
                ..AgentSettings::with_concurrency(4)
            },
        );
        sim.run_for(40.0);
        let with_p = sim.take_sample(a);
        sim.set_settings(a, AgentSettings::with_concurrency(4));
        sim.run_for(40.0);
        let without_p = sim.take_sample(a);
        let ratio = with_p.throughput_mbps / without_p.throughput_mbps;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "concurrency must be >= 1")]
    fn zero_concurrency_rejected() {
        let mut sim = Simulation::new(Environment::xsede(), 1);
        let a = sim.add_agent();
        sim.set_settings(
            a,
            AgentSettings {
                concurrency: 0,
                ..AgentSettings::with_concurrency(1)
            },
        );
    }

    #[test]
    fn multi_hop_throughput_capped_by_tighter_link() {
        let s = settled_sample(Environment::multi_hop(), 10, 40.0);
        // 10 × 400 Mbps = 4 Gbps of demand squeezes through the 2.5 Gbps
        // backbone hop.
        assert!(
            (2_200.0..2_550.0).contains(&s.throughput_mbps),
            "got {}",
            s.throughput_mbps
        );
    }

    #[test]
    fn multi_hop_loss_combines_links() {
        // Two saturated 100 Mbps hops drop roughly twice what one does:
        // end-to-end loss = 1 − ∏(1 − Lᵢ).
        use crate::resource::{Resource, ResourceKind};
        let mut two_hop = Environment::emulab_fig4().without_noise();
        two_hop.resources = vec![
            Resource::new("disk-read", ResourceKind::DiskRead, 1000.0, Some(10.0)),
            Resource::new("src-nic", ResourceKind::SourceNic, 1000.0, None),
            Resource::new("hop1-100M", ResourceKind::NetworkLink, 100.0, None),
            Resource::new("hop2-100M", ResourceKind::NetworkLink, 100.0, None),
            Resource::new("dst-nic", ResourceKind::DestNic, 1000.0, None),
        ];
        two_hop.bottleneck_link = 3;

        let loss_of = |env: Environment| {
            let mut sim = Simulation::new(env, 7);
            let a = sim.add_agent();
            sim.set_settings(a, AgentSettings::with_concurrency(32));
            sim.run_for(30.0);
            sim.current_loss()
        };
        let single = loss_of(Environment::emulab_fig4().without_noise());
        let double = loss_of(two_hop);
        assert!(single > 0.05, "single-hop loss {single}");
        assert!(
            double > 1.5 * single,
            "two hops should compound: {double} vs {single}"
        );
        assert!(
            double < 2.0 * single + 0.01,
            "more than compounding: {double}"
        );
    }

    #[test]
    fn share_weight_biases_saturated_shares() {
        // Two identical agents, one with half the per-connection weight
        // (a longer-RTT transfer): at a saturated link it gets ~half the
        // bandwidth — TCP's documented RTT unfairness, opt-in.
        let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), 3);
        let heavy = sim.add_agent();
        let light = sim.add_agent();
        sim.set_settings(heavy, AgentSettings::with_concurrency(10));
        sim.set_settings(
            light,
            AgentSettings {
                share_weight: 0.5,
                ..AgentSettings::with_concurrency(10)
            },
        );
        sim.run_for(60.0);
        let h = sim.take_sample(heavy).throughput_mbps;
        let l = sim.take_sample(light).throughput_mbps;
        let ratio = h / l;
        assert!((1.7..2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn sample_resets_accumulator() {
        let mut sim = Simulation::new(Environment::xsede().without_noise(), 1);
        let a = sim.add_agent();
        sim.set_settings(a, AgentSettings::with_concurrency(2));
        sim.run_for(10.0);
        let s1 = sim.take_sample(a);
        let s2 = sim.take_sample(a);
        assert!(s1.throughput_mbps > 0.0);
        assert_eq!(s2.interval_s, 0.0);
    }

    #[test]
    fn run_for_honors_fractional_remainder() {
        for (name, run_for) in STEPPERS {
            let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), 1);
            run_for(&mut sim, 1.25, 0.5); // used to round to 1.0s
            assert!(
                (sim.time_s() - 1.25).abs() < 1e-9,
                "{name}: t = {}",
                sim.time_s()
            );
            run_for(&mut sim, 0.9, 0.3); // exact multiple: no dust step
            assert!(
                (sim.time_s() - 2.15).abs() < 1e-9,
                "{name}: t = {}",
                sim.time_s()
            );
        }
    }

    #[test]
    fn capacity_drop_event_caps_throughput_and_restore_recovers() {
        let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), 2);
        let a = sim.add_agent();
        sim.set_settings(a, AgentSettings::with_concurrency(10));
        sim.add_events([
            EnvironmentEvent::at(
                60.0,
                EventAction::LinkCapacityFactor {
                    resource: None,
                    factor: 0.3,
                },
            ),
            EnvironmentEvent::at(
                120.0,
                EventAction::LinkCapacityFactor {
                    resource: None,
                    factor: 1.0,
                },
            ),
        ]);
        sim.run_for(60.0);
        let before = sim.take_sample(a).throughput_mbps;
        sim.run_for(60.0);
        let during = sim.take_sample(a).throughput_mbps;
        sim.run_for(60.0);
        let after = sim.take_sample(a).throughput_mbps;
        // 1 Gbps link, 10×100 Mbps processes: ~1000 before, ~300 during.
        assert!(before > 900.0, "before drop: {before}");
        assert!(during < 350.0, "during drop: {during}");
        assert!(after > 850.0, "after restore: {after}");
    }

    #[test]
    fn loss_floor_event_raises_measured_loss() {
        let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), 3);
        let a = sim.add_agent();
        sim.set_settings(a, AgentSettings::with_concurrency(2));
        sim.add_event(EnvironmentEvent::at(
            30.0,
            EventAction::LossFloor { rate: 0.02 },
        ));
        sim.run_for(30.0);
        let clean = sim.take_sample(a).loss_rate;
        sim.run_for(30.0);
        let dirty = sim.take_sample(a).loss_rate;
        assert!(clean < 0.005, "clean loss {clean}");
        assert!(dirty >= 0.019, "floored loss {dirty}");
    }

    #[test]
    fn kill_event_zeroes_agent_and_revive_ramps_back() {
        let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), 4);
        let a = sim.add_agent();
        sim.set_settings(a, AgentSettings::with_concurrency(10));
        sim.add_events([
            EnvironmentEvent::at(30.0, EventAction::KillAgent { agent: 0 }),
            EnvironmentEvent::at(60.0, EventAction::ReviveAgent { agent: 0 }),
        ]);
        sim.run_for(45.0);
        assert!(!sim.is_alive(a));
        assert_eq!(sim.try_instantaneous_rate_mbps(a), None);
        assert!(sim.try_take_sample(a).is_none());
        sim.run_for(45.0);
        assert!(sim.is_alive(a));
        let s = sim.take_sample(a);
        assert!(
            s.throughput_mbps > 60.0,
            "revived agent should ramp back: {}",
            s.throughput_mbps
        );
    }

    #[test]
    fn disk_throttle_event_scales_per_process_cap() {
        // Fig 4 topology: 1 process reads at 10 Mbps; halving the throttle
        // should halve it.
        let mut sim = Simulation::new(Environment::emulab_fig4().without_noise(), 5);
        let a = sim.add_agent();
        sim.set_settings(a, AgentSettings::with_concurrency(1));
        sim.add_event(EnvironmentEvent::at(
            30.0,
            EventAction::DiskThrottleFactor { factor: 0.5 },
        ));
        sim.run_for(30.0);
        let before = sim.take_sample(a).throughput_mbps;
        sim.run_for(30.0);
        let after = sim.take_sample(a).throughput_mbps;
        assert!((before - 10.0).abs() < 1.0, "before {before}");
        assert!((after - 5.0).abs() < 1.0, "after {after}");
    }

    #[test]
    #[should_panic(expected = "dead agent")]
    fn take_sample_on_removed_agent_panics_clearly() {
        let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), 6);
        let a = sim.add_agent();
        sim.remove_agent(a);
        let _ = sim.take_sample(a);
    }

    #[test]
    fn routed_disjoint_paths_do_not_interfere() {
        let env = Environment::fleet(&[1000.0, 1000.0]).without_noise();
        let mut sim = Simulation::new(env, 7);
        let a = sim.add_agent_on_path(0b01);
        let b = sim.add_agent_on_path(0b10);
        sim.set_settings(a, AgentSettings::with_concurrency(2));
        sim.set_settings(b, AgentSettings::with_concurrency(2));
        sim.run_for(30.0);
        let sa = sim.take_sample(a);
        let sb = sim.take_sample(b);
        // Each agent saturates its own link; neither steals from the other.
        assert!(sa.throughput_mbps > 900.0, "a got {}", sa.throughput_mbps);
        assert!(sb.throughput_mbps > 900.0, "b got {}", sb.throughput_mbps);
    }

    #[test]
    fn routed_shared_link_splits_fairly() {
        let env = Environment::fleet(&[1000.0, 1000.0]).without_noise();
        let mut sim = Simulation::new(env, 7);
        let a = sim.add_agent_on_path(0b01);
        let b = sim.add_agent_on_path(0b01);
        sim.set_settings(a, AgentSettings::with_concurrency(2));
        sim.set_settings(b, AgentSettings::with_concurrency(2));
        sim.run_for(30.0);
        let sa = sim.take_sample(a).throughput_mbps;
        let sb = sim.take_sample(b).throughput_mbps;
        let ratio = sa / sb;
        assert!((0.95..1.05).contains(&ratio), "ratio {ratio}");
        assert!(sa + sb < 1050.0, "sum {}", sa + sb);
    }

    #[test]
    fn routed_multi_link_path_constrained_by_tightest_hop() {
        let env = Environment::fleet(&[1000.0, 2500.0, 400.0]).without_noise();
        let mut sim = Simulation::new(env, 7);
        let a = sim.add_agent_on_path(0b111);
        sim.set_settings(a, AgentSettings::with_concurrency(2));
        sim.run_for(30.0);
        let s = sim.take_sample(a);
        assert!(
            (300.0..430.0).contains(&s.throughput_mbps),
            "got {}",
            s.throughput_mbps
        );
    }

    #[test]
    fn routed_loss_accumulates_per_congested_hop() {
        // Saturate both links with single-link competitors; the cross-path
        // agent sees the compounded loss of its two congested hops.
        let loss_crossing = |mask: u64| {
            let env = Environment::fleet(&[500.0, 500.0]).without_noise();
            let mut sim = Simulation::new(env, 7);
            for link in [0b01u64, 0b10u64] {
                for _ in 0..3 {
                    let h = sim.add_agent_on_path(link);
                    sim.set_settings(h, AgentSettings::with_concurrency(4));
                }
            }
            let probe = sim.add_agent_on_path(mask);
            sim.set_settings(probe, AgentSettings::with_concurrency(2));
            sim.run_for(30.0);
            sim.take_sample(probe).loss_rate
        };
        let one_hop = loss_crossing(0b01);
        let two_hop = loss_crossing(0b11);
        assert!(one_hop > 0.0, "one hop lossless: {one_hop}");
        assert!(
            two_hop > 1.5 * one_hop,
            "hops should compound: {two_hop} vs {one_hop}"
        );
    }

    #[test]
    fn routed_mode_coexists_with_full_path_agents() {
        // A full-path (add_agent) transfer in a routed sim crosses every
        // link and competes on each of them.
        let env = Environment::fleet(&[800.0, 800.0]).without_noise();
        let mut sim = Simulation::new(env, 7);
        let routed = sim.add_agent_on_path(0b01);
        let full = sim.add_agent();
        sim.set_settings(routed, AgentSettings::with_concurrency(2));
        sim.set_settings(full, AgentSettings::with_concurrency(2));
        sim.run_for(30.0);
        let sr = sim.take_sample(routed).throughput_mbps;
        let sf = sim.take_sample(full).throughput_mbps;
        // They share link0; sum bounded by its capacity.
        assert!(sr + sf < 850.0, "sum {}", sr + sf);
        assert!(sr > 250.0 && sf > 250.0, "shares {sr} / {sf}");
        assert_eq!(sim.path_mask(routed), 0b01);
        assert_eq!(sim.path_mask(full), 0b11);
    }

    #[test]
    #[should_panic(expected = "path mask")]
    fn routed_rejects_out_of_range_mask() {
        let mut sim = Simulation::new(Environment::fleet(&[1000.0]).without_noise(), 1);
        let _ = sim.add_agent_on_path(0b10);
    }

    #[test]
    fn try_set_settings_reports_dead_agent_but_keeps_settings() {
        let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), 7);
        let a = sim.add_agent();
        sim.kill_agent(a);
        assert!(!sim.try_set_settings(a, AgentSettings::with_concurrency(8)));
        sim.revive_agent(a);
        assert_eq!(sim.settings(a).concurrency, 8);
        sim.run_for(30.0);
        assert!(sim.instantaneous_rate_mbps(a) > 0.0);
    }

    /// Runs a sim with one mid-step event under `run_for`, advancing time
    /// with the given `(duration, dt)` slices; returns the trace timestamp
    /// the event actually applied at, and the final sim time.
    fn event_fire_time(run_for: RunFor, slices: &[(f64, f64)]) -> (f64, f64) {
        let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), 2);
        let tracer = Tracer::recording();
        sim.set_tracer(tracer.clone());
        let a = sim.add_agent();
        sim.set_settings(a, AgentSettings::with_concurrency(10));
        sim.add_event(EnvironmentEvent::at(
            12.5,
            EventAction::LinkCapacityFactor {
                resource: None,
                factor: 0.5,
            },
        ));
        for &(d, dt) in slices {
            run_for(&mut sim, d, dt);
        }
        let log = tracer.take_log();
        let rec = log
            .records
            .iter()
            .find(|r| matches!(r.event, TraceEvent::Environment { .. }))
            .expect("environment event never fired");
        (rec.t_s, sim.time_s())
    }

    #[test]
    fn event_inside_a_step_fires_at_exact_time_in_both_engines() {
        // The issue's pinned case: at_s = 12.5 with dt = 0.1 applies at
        // exactly 12.5 s, for any run_for slicing — including a slice
        // boundary at 12.47 that used to shift the firing tick.
        for (engine, run_for) in STEPPERS {
            let (t, _) = event_fire_time(run_for, &[(30.0, 0.1)]);
            assert_eq!(t, 12.5, "{engine}: contiguous run fired at {t}");
            let (t, end) = event_fire_time(run_for, &[(12.47, 0.1), (10.0, 0.1)]);
            assert_eq!(t, 12.5, "{engine}: sliced run fired at {t}");
            assert!((end - 22.47).abs() < 1e-9, "{engine}: ended at {end}");
        }
    }

    #[test]
    fn engines_agree_on_event_driven_environment_state() {
        // Capacity drop + restore: both engines must hold bit-identical
        // environment state at every probe instant.
        let run = |run_for: RunFor| {
            let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), 2);
            let a = sim.add_agent();
            sim.set_settings(a, AgentSettings::with_concurrency(10));
            sim.add_events([
                EnvironmentEvent::at(
                    10.25,
                    EventAction::LinkCapacityFactor {
                        resource: None,
                        factor: 0.3,
                    },
                ),
                EnvironmentEvent::at(20.75, EventAction::LossFloor { rate: 0.015 }),
            ]);
            let mut states = Vec::new();
            for _ in 0..5 {
                run_for(&mut sim, 5.21, 0.1);
                let caps: Vec<f64> = sim
                    .env()
                    .resources
                    .iter()
                    .map(|r| r.capacity_mbps)
                    .collect();
                states.push((caps, sim.env().rtt_s, sim.pending_events().len()));
            }
            states
        };
        assert_eq!(run(DES), run(TICK));
    }

    #[test]
    fn engines_agree_on_delivered_within_tick_tolerance() {
        // Rates integrate analytically under DES and by right-Riemann
        // ticks under the oracle; the difference is O(dt) during
        // transients and vanishes at steady state.
        let throughput = |run_for: RunFor| {
            let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), 2);
            let a = sim.add_agent();
            sim.set_settings(a, AgentSettings::with_concurrency(10));
            run_for(&mut sim, 60.0, 0.1);
            sim.take_sample(a).throughput_mbps
        };
        let des = throughput(DES);
        let tick = throughput(TICK);
        assert!(
            (des - tick).abs() < 0.005 * tick.max(1.0),
            "DES {des} vs tick {tick}"
        );
    }

    #[test]
    fn tick_grid_does_not_drift_over_long_runs() {
        // An hour of 0.1 s ticks lands exactly on the hour: tick times are
        // start + i·dt, never accumulated.
        let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), 1);
        oracle::run_for(&mut sim, 3600.0, 0.1);
        assert!((sim.time_s() - 3600.0).abs() < 1e-9, "t = {}", sim.time_s());
        // And a drifting schedule of odd-length slices still lands exactly.
        let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), 1);
        for _ in 0..1000 {
            sim.run_for(0.37);
        }
        assert!((sim.time_s() - 370.0).abs() < 1e-6, "t = {}", sim.time_s());
    }

    #[test]
    fn run_until_is_monotonic_and_noop_for_past_times() {
        let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), 1);
        sim.run_until(10.0);
        assert_eq!(sim.time_s(), 10.0);
        sim.run_until(5.0);
        assert_eq!(sim.time_s(), 10.0);
        sim.advance(2.5);
        assert_eq!(sim.time_s(), 12.5);
    }

    #[test]
    fn coincident_events_fire_in_insertion_order() {
        for (engine, run_for) in STEPPERS {
            let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), 2);
            let base = sim.env().resources[sim.env().bottleneck_link].capacity_mbps;
            sim.add_events([
                EnvironmentEvent::at(
                    5.13,
                    EventAction::LinkCapacityFactor {
                        resource: None,
                        factor: 0.5,
                    },
                ),
                EnvironmentEvent::at(
                    5.13,
                    EventAction::LinkCapacityFactor {
                        resource: None,
                        factor: 0.25,
                    },
                ),
            ]);
            run_for(&mut sim, 10.0, 0.1);
            let cap = sim.env().resources[sim.env().bottleneck_link].capacity_mbps;
            assert_eq!(cap, base * 0.25, "{engine}: last insertion wins");
        }
    }

    #[test]
    fn try_add_event_rejects_past_and_nonfinite_times() {
        let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), 1);
        sim.add_event(EnvironmentEvent::at(
            10.0,
            EventAction::LossFloor { rate: 0.01 },
        ));
        sim.run_for(20.0);
        let err = sim
            .try_add_event(EnvironmentEvent::at(
                5.0,
                EventAction::KillAgent { agent: 0 },
            ))
            .unwrap_err();
        assert_eq!(err.index, 1);
        assert_eq!(err.last_fired_at_s, Some(10.0));
        assert!(err.to_string().contains("KillAgent"), "{err}");
        let err = sim
            .try_add_event(EnvironmentEvent::at(
                f64::NAN,
                EventAction::LossFloor { rate: 0.0 },
            ))
            .unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
        // Future events are still accepted after rejections.
        assert!(sim
            .try_add_event(EnvironmentEvent::at(
                30.0,
                EventAction::LossFloor { rate: 0.0 }
            ))
            .is_ok());
        assert_eq!(sim.pending_events().len(), 1);
    }

    #[test]
    #[should_panic(expected = "KillAgent")]
    fn add_event_panic_names_the_offending_action() {
        let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), 1);
        sim.add_event(EnvironmentEvent::at(
            10.0,
            EventAction::LossFloor { rate: 0.01 },
        ));
        sim.run_for(20.0);
        sim.add_event(EnvironmentEvent::at(
            5.0,
            EventAction::KillAgent { agent: 0 },
        ));
    }

    #[test]
    fn total_delivered_is_monotonic_across_samples_and_revives() {
        let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), 4);
        let a = sim.add_agent();
        sim.set_settings(a, AgentSettings::with_concurrency(4));
        sim.run_for(10.0);
        let t1 = sim.delivered_mbits_total(a);
        assert!(t1 > 0.0);
        let _ = sim.take_sample(a); // resets the interval accumulator...
        assert_eq!(sim.delivered_mbits_total(a), t1); // ...not the total
        sim.kill_agent(a);
        sim.run_for(5.0);
        assert_eq!(
            sim.delivered_mbits_total(a),
            t1,
            "dead agents deliver nothing"
        );
        sim.revive_agent(a);
        sim.run_for(10.0);
        assert!(sim.delivered_mbits_total(a) > t1);
    }

    #[test]
    fn background_edges_split_tick_steps_exactly() {
        // A background flow starting mid-step must shift allocations at
        // its exact start time in both engines: environment-state parity
        // requires splitting ticks at background edges too.
        for (engine, run_for) in STEPPERS {
            let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), 2);
            let a = sim.add_agent();
            sim.set_settings(a, AgentSettings::with_concurrency(10));
            sim.add_background_flow(BackgroundFlow {
                start_s: 30.07,
                end_s: 60.03,
                demand_mbps: 600.0,
                connections: 6,
            });
            run_for(&mut sim, 30.0, 0.1);
            let before = sim.take_sample(a).throughput_mbps;
            run_for(&mut sim, 30.0, 0.1);
            let during = sim.take_sample(a).throughput_mbps;
            run_for(&mut sim, 30.0, 0.1);
            let after = sim.take_sample(a).throughput_mbps;
            assert!(before > 950.0, "{engine}: before {before}");
            assert!(during < 700.0, "{engine}: during {during}");
            assert!(after > 900.0, "{engine}: after {after}");
        }
    }

    /// `run_until` with the targets dropped before every segment: the
    /// reference the cached stepper must match bit for bit.
    fn run_until_rederived(sim: &mut Simulation, t_end_s: f64) {
        while sim.time_s < t_end_s {
            sim.scratch.targets = None;
            sim.run_segment(t_end_s);
        }
    }

    /// Apply one generated operation to `sim`. `kind` picks the operation,
    /// `pick` an agent, resource or action, `x` ∈ [0, 1) its magnitude.
    /// Returns the bits of the samples the operation took, if any.
    fn apply_op(
        sim: &mut Simulation,
        (kind, pick, x): (u32, usize, f64),
        rederive: bool,
    ) -> Vec<u64> {
        let t = sim.time_s;
        let n = sim.agents.len();
        let agent = AgentHandle(pick % n);
        let run_until = |sim: &mut Simulation, t_end_s: f64| {
            if rederive {
                run_until_rederived(sim, t_end_s);
            } else {
                sim.run_until(t_end_s);
            }
        };
        match kind {
            0 => run_until(sim, t + 7.0 * x),
            // Land just past the next background edge.
            1 => {
                let edge = sim.next_background_edge_after(t);
                if edge.is_finite() {
                    run_until(sim, edge + 0.5 * x);
                }
            }
            2 => run_until(sim, t),
            3 => {
                let _ = sim.try_set_settings(agent, sim.settings(agent));
            }
            4 => {
                let settings = AgentSettings {
                    concurrency: 1 + (pick as u32 * 7 + (x * 9.0) as u32) % 12,
                    parallelism: 1 + (x * 3.0) as u32,
                    efficiency: 0.25 + 0.75 * x,
                    share_weight: if pick % 3 == 0 { 0.5 } else { 1.0 },
                };
                let _ = sim.try_set_settings(agent, settings);
            }
            5 if n < 8 => {
                let h = if sim.env.name == "fleet" {
                    sim.add_agent_on_path(1 + (pick as u64 % 7))
                } else {
                    sim.add_agent()
                };
                sim.set_settings(h, AgentSettings::with_concurrency(1 + pick as u32));
            }
            6 => sim.remove_agent(agent),
            7 => sim.kill_agent(agent),
            8 => sim.revive_agent(agent),
            9..=14 => {
                let n_res = sim.env.resources.len();
                let action = match kind {
                    9 => EventAction::LinkCapacityFactor {
                        resource: (pick % 2 == 0).then_some(pick % n_res),
                        factor: 0.3 + x,
                    },
                    10 => EventAction::LossFloor { rate: 0.05 * x },
                    11 => EventAction::DiskThrottleFactor { factor: 0.3 + x },
                    12 => EventAction::RttShift {
                        rtt_s: 0.005 + 0.1 * x,
                    },
                    13 => EventAction::KillAgent { agent: pick },
                    _ => EventAction::ReviveAgent { agent: pick },
                };
                sim.add_event(EnvironmentEvent::at(t + 3.0 * x, action));
            }
            15 => {
                let start_s = t + 5.0 * x;
                sim.add_background_flow(BackgroundFlow {
                    start_s,
                    end_s: start_s + 1.0 + pick as f64,
                    demand_mbps: 100.0 + 500.0 * x,
                    connections: 1 + pick as u32,
                });
            }
            _ => {
                return (0..n)
                    .filter_map(|i| sim.try_take_sample(AgentHandle(i)))
                    .flat_map(|s| [s.throughput_mbps, s.loss_rate, s.interval_s])
                    .map(f64::to_bits)
                    .collect();
            }
        }
        Vec::new()
    }

    /// Everything observable about a sim, as bits.
    fn observables(sim: &Simulation) -> Vec<u64> {
        let mut out = vec![sim.time_s.to_bits(), sim.current_loss.to_bits()];
        for (i, a) in sim.agents.iter().enumerate() {
            let instant = sim.try_instantaneous_rate_mbps(AgentHandle(i));
            out.extend([
                u64::from(a.alive),
                a.total_delivered_mb.to_bits(),
                a.delivered_mb.to_bits(),
                a.loss_integral.to_bits(),
                a.sample_clock_s.to_bits(),
                instant.map_or(u64::MAX, f64::to_bits),
            ]);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Reused targets are exactly the targets a rebuild would produce:
        /// a sim that keeps them between segments and one that re-derives
        /// them every segment agree bit for bit on delivered bytes, instant
        /// rates, loss, samples and every trace record, counter and
        /// histogram — except that the re-deriving sim counts each reuse as
        /// an allocation run. Routed fleet and single-path Emulab worlds,
        /// under every operation that changes a target input.
        #[test]
        fn cached_targets_match_rederived_targets(
            routed in 0usize..2,
            ops in vec((0u32..17, 0usize..8, 0.0f64..1.0), 1..60),
        ) {
            let build = || {
                let mut sim = if routed == 1 {
                    let mut sim = Simulation::new(Environment::fleet(&[600.0, 900.0, 1500.0]), 5);
                    for mask in [0b001, 0b111] {
                        let h = sim.add_agent_on_path(mask);
                        sim.set_settings(h, AgentSettings::with_concurrency(4));
                    }
                    sim
                } else {
                    let mut sim = Simulation::new(Environment::emulab(100.0), 5);
                    for cc in [3, 8] {
                        let h = sim.add_agent();
                        sim.set_settings(h, AgentSettings::with_concurrency(cc));
                    }
                    sim
                };
                for (start_s, end_s) in [(2.0, 9.5), (4.25, f64::INFINITY)] {
                    sim.add_background_flow(BackgroundFlow {
                        start_s,
                        end_s,
                        demand_mbps: 300.0,
                        connections: 3,
                    });
                }
                sim.set_tracer(Tracer::recording());
                sim
            };
            let (mut cached, mut rederived) = (build(), build());
            for (step, &op) in ops.iter().enumerate() {
                let samples = apply_op(&mut cached, op, false);
                let rederived_samples = apply_op(&mut rederived, op, true);
                prop_assert_eq!(
                    (samples, observables(&cached)),
                    (rederived_samples, observables(&rederived)),
                    "after op {} {:?} of {:?}",
                    step,
                    op,
                    ops
                );
            }
            let (a, b) = (cached.tracer.take_log(), rederived.tracer.take_log());
            prop_assert_eq!(&a.records, &b.records);
            prop_assert_eq!(&a.histograms, &b.histograms);
            let count = |log: &TraceLog, name: &str| log.counter(name).unwrap_or(0);
            let other_counters = |log: &TraceLog| {
                let mut rest = log.counters.clone();
                rest.retain(|(name, _)| !name.starts_with("sim.alloc_"));
                rest
            };
            prop_assert_eq!(other_counters(&a), other_counters(&b));
            let steps = count(&a, "sim.steps");
            prop_assert_eq!(
                count(&a, "sim.alloc_runs") + count(&a, "sim.alloc_skips"),
                steps
            );
            prop_assert_eq!(count(&b, "sim.alloc_runs"), steps);
        }
    }
}
