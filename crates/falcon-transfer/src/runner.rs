//! The experiment engine: competing transfer tasks against one harness.
//!
//! Every figure in the paper's evaluation is a run of this engine with a
//! different cast: one or more Falcon agents (GD/BO/HC), baseline tuners
//! (Globus, HARP), staggered joins and departures, and a trace recorder.

use falcon_core::{FalconAgent, ProbeMetrics, TransferSettings};
use falcon_sim::EventQueue;
use falcon_trace::{ConvergenceDetector, TraceEvent, Tracer};

use crate::dataset::Dataset;
use crate::harness::TransferHarness;

/// Anything that can steer a transfer task from interval samples: Falcon
/// agents, the Globus heuristic, HARP's regression, or a fixed setting.
pub trait Tuner {
    /// Label for traces and tables.
    fn label(&self) -> String;

    /// The setting to apply when the transfer starts.
    fn initial(&mut self) -> TransferSettings;

    /// Consume one interval's metrics, return the next setting.
    fn on_sample(&mut self, metrics: &ProbeMetrics) -> TransferSettings;

    /// Install a tracer for decision events. Default: ignore (baseline
    /// tuners emit no decision breakdowns).
    fn set_tracer(&mut self, _tracer: Tracer) {}
}

impl Tuner for FalconAgent {
    fn label(&self) -> String {
        format!("falcon-{}", self.optimizer_name())
    }

    fn initial(&mut self) -> TransferSettings {
        self.initial_settings()
    }

    fn on_sample(&mut self, metrics: &ProbeMetrics) -> TransferSettings {
        self.observe(*metrics)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        FalconAgent::set_tracer(self, tracer);
    }
}

/// A tuner that never changes its setting (used for ablations and as the
/// core of the Globus baseline).
pub struct FixedTuner {
    /// The pinned setting.
    pub settings: TransferSettings,
    /// Label for traces.
    pub name: String,
}

impl Tuner for FixedTuner {
    fn label(&self) -> String {
        self.name.clone()
    }
    fn initial(&mut self) -> TransferSettings {
        self.settings
    }
    fn on_sample(&mut self, _metrics: &ProbeMetrics) -> TransferSettings {
        self.settings
    }
}

/// One transfer task in an experiment.
pub struct AgentPlan {
    /// The tuner steering it.
    pub tuner: Box<dyn Tuner>,
    /// Dataset to move.
    pub dataset: Dataset,
    /// When the task joins (seconds from experiment start).
    pub start_s: f64,
    /// Optional scripted departure (seconds); `None` = runs to completion
    /// or end of experiment.
    pub leave_s: Option<f64>,
}

impl AgentPlan {
    /// Task that starts at t = 0 and runs until done.
    pub fn at_start(tuner: Box<dyn Tuner>, dataset: Dataset) -> Self {
        AgentPlan {
            tuner,
            dataset,
            start_s: 0.0,
            leave_s: None,
        }
    }

    /// Task that joins later (competing-transfer experiments).
    pub fn joining_at(tuner: Box<dyn Tuner>, dataset: Dataset, start_s: f64) -> Self {
        AgentPlan {
            tuner,
            dataset,
            start_s,
            leave_s: None,
        }
    }

    /// Scripted departure (builder style).
    pub fn leaving_at(mut self, leave_s: f64) -> Self {
        self.leave_s = Some(leave_s);
        self
    }
}

/// One point of an agent's trace, as [`RunTrace::points`] and
/// [`RunTrace::window`] yield it.
#[derive(Debug, Clone)]
pub struct TracePoint {
    /// Wall-clock time (seconds).
    pub t_s: f64,
    /// Agent index in the plan order.
    pub agent: u32,
    /// Instantaneous goodput (Mbps).
    pub mbps: f64,
    /// Settings in effect.
    pub settings: TransferSettings,
}

/// One agent's trace: its goodput at every trace instant from `first` on,
/// and its settings as runs. An agent is traced at every instant from the
/// first after its join to its completion or departure (a detached process
/// stays traced), so one column and one start index hold it exactly.
#[derive(Default)]
struct Column {
    /// Index in [`RunTrace`]'s `times` of the agent's first point.
    first: usize,
    /// Goodput (Mbps) at instants `first..first + mbps.len()`.
    mbps: Vec<f64>,
    /// `(instant, settings)` wherever the settings differ from the
    /// previous point's, the first at `first`. A run schedules at most
    /// `u32::MAX` instants (`trace_instants`), so the index fits.
    runs: Vec<(u32, TransferSettings)>,
}

/// The column of an agent the run does not have: no points.
static NO_COLUMN: Column = Column {
    first: 0,
    mbps: Vec::new(),
    runs: Vec::new(),
};

impl Column {
    /// Record the agent's point at instant `k`. `remaining` counts the
    /// run's instants from `k` on. The first point reserves that many
    /// goodputs and settings runs (at most one run per instant), so neither
    /// vector ever reallocates and leaves a freed copy resident; the pages
    /// of a reservation the agent never writes are never touched.
    fn push(&mut self, k: usize, remaining: usize, mbps: f64, settings: TransferSettings) {
        if self.mbps.is_empty() {
            self.first = k;
            // A failed reservation only leaves the vectors to grow as they go.
            let _ = self.mbps.try_reserve_exact(remaining);
            let _ = self.runs.try_reserve_exact(remaining);
        }
        if self.runs.last().is_none_or(|&(_, s)| s != settings) {
            self.runs.push((k as u32, settings));
        }
        self.mbps.push(mbps);
    }

    /// The agent is traced no more: hand back what it reserved and did not
    /// use.
    fn close(&mut self) {
        self.mbps.shrink_to_fit();
        self.runs.shrink_to_fit();
    }

    /// The settings at instant `k` (which must be one of the column's).
    fn settings_at(&self, k: usize) -> TransferSettings {
        let run = self.runs.partition_point(|&(at, _)| at as usize <= k);
        self.runs[run.saturating_sub(1)].1
    }
}

/// The full record of an experiment run.
///
/// The 1-s grid is stored by column: one shared `times` entry per trace
/// instant the run served, and per agent an `f64` goodput column and its
/// settings runs, ~8 bytes per agent-point instead of a 32-byte
/// [`TracePoint`]. A window is an index range of `times`, found by binary
/// search.
pub struct RunTrace {
    /// Agent labels in plan order.
    pub labels: Vec<String>,
    /// Every trace instant the run served, in order (the harness clock
    /// never goes back, so this is sorted).
    times: Vec<f64>,
    /// One column per agent, in plan order.
    columns: Vec<Column>,
    /// Completion time per agent (`None` if still running at the end).
    pub completed_at: Vec<Option<f64>>,
    /// First convergence instant per agent (`None` if its concurrency
    /// never settled): the time of its first `TraceEvent::Convergence`
    /// record, kept whether or not the run records.
    pub converged_at: Vec<Option<f64>>,
    /// Successful watchdog restarts per agent. The paper's online
    /// optimizers assume every sample reflects the network; the watchdog
    /// keeps that true when processes die or stall, without resetting the
    /// optimizer state learned before the fault. Each action is also a
    /// `TraceEvent::Recovery` record (`detached`, `restart_attempt` with the
    /// next backoff as its value, `restarted`, `stalled_probe`).
    pub restarts: Vec<usize>,
    /// Stalled (near-zero-throughput) probe samples per agent that were
    /// discarded instead of reaching the tuner.
    pub discarded_probes: Vec<usize>,
}

impl RunTrace {
    /// Every point, time-ordered, agents in plan order within an instant.
    pub fn points(&self) -> impl Iterator<Item = TracePoint> + '_ {
        self.times.iter().enumerate().flat_map(move |(k, &t_s)| {
            self.columns
                .iter()
                .enumerate()
                .filter_map(move |(agent, c)| {
                    let mbps = *c.mbps.get(k.checked_sub(c.first)?)?;
                    Some(TracePoint {
                        t_s,
                        agent: agent as u32,
                        mbps,
                        settings: c.settings_at(k),
                    })
                })
        })
    }

    /// One agent's points inside `[from_s, to_s)`, in time order (none for
    /// a NaN bound or an unknown agent).
    pub fn window(
        &self,
        agent: usize,
        from_s: f64,
        to_s: f64,
    ) -> impl Iterator<Item = TracePoint> + Clone + '_ {
        let c = self.columns.get(agent).unwrap_or(&NO_COLUMN);
        let lo = self
            .times
            .partition_point(|&t| t < from_s || from_s.is_nan())
            .max(c.first);
        let hi = self
            .times
            .partition_point(|&t| t < to_s)
            .min(c.first + c.mbps.len());
        (lo..hi.max(lo)).map(move |k| TracePoint {
            t_s: self.times[k],
            agent: agent as u32,
            mbps: c.mbps[k - c.first],
            settings: c.settings_at(k),
        })
    }

    /// Mean of `f` over one agent's window (0 when the window is empty).
    fn window_mean(
        &self,
        agent: usize,
        from_s: f64,
        to_s: f64,
        f: impl Fn(&TracePoint) -> f64,
    ) -> f64 {
        let (sum, n) = self
            .window(agent, from_s, to_s)
            .fold((0.0, 0usize), |(sum, n), p| (sum + f(&p), n + 1));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Time series `(t, mbps, concurrency)` of one agent.
    pub fn series(&self, agent: usize) -> Vec<(f64, f64, u32)> {
        self.window(agent, f64::NEG_INFINITY, f64::INFINITY)
            .map(|p| (p.t_s, p.mbps, p.settings.concurrency))
            .collect()
    }

    /// Mean goodput of an agent over `[from_s, to_s)`.
    pub fn avg_mbps(&self, agent: usize, from_s: f64, to_s: f64) -> f64 {
        self.window_mean(agent, from_s, to_s, |p| p.mbps)
    }

    /// Mean concurrency of an agent over `[from_s, to_s)`.
    pub fn avg_concurrency(&self, agent: usize, from_s: f64, to_s: f64) -> f64 {
        self.window_mean(agent, from_s, to_s, |p| f64::from(p.settings.concurrency))
    }

    /// Export the full trace as CSV (`t_s,agent,label,mbps,concurrency,
    /// parallelism,pipelining`), ready for external plotting of the paper's
    /// time-series figures.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_s,agent,label,mbps,concurrency,parallelism,pipelining\n");
        for p in self.points() {
            out.push_str(&format!(
                "{:.1},{},{},{:.1},{},{},{}\n",
                p.t_s,
                p.agent,
                self.labels
                    .get(p.agent as usize)
                    .map_or("?", |s| s.as_str()),
                p.mbps,
                p.settings.concurrency,
                p.settings.parallelism,
                p.settings.pipelining,
            ));
        }
        out
    }

    /// Process-seconds consumed by an agent over a window: the integral of
    /// its concurrency over time. The paper's "just-enough concurrency"
    /// claim is exactly that Falcon buys near-optimal throughput at far
    /// fewer process-seconds than aggressive fixed settings (§2, §3.1).
    pub fn process_seconds(&self, agent: usize, from_s: f64, to_s: f64) -> f64 {
        let pts = self.window(agent, from_s, to_s);
        pts.clone().zip(pts.skip(1)).fold(0.0, |total, (a, b)| {
            total + f64::from(a.settings.concurrency) * (b.t_s - a.t_s)
        })
    }

    /// How many times the agent's settings changed in a window — the
    /// reconfiguration churn of an always-on search.
    pub fn settings_changes(&self, agent: usize, from_s: f64, to_s: f64) -> usize {
        let pts = self.window(agent, from_s, to_s);
        pts.clone()
            .zip(pts.skip(1))
            .filter(|(a, b)| a.settings != b.settings)
            .count()
    }

    /// How many times an agent's process was restarted successfully.
    pub fn restarts(&self, agent: usize) -> usize {
        self.restarts[agent]
    }

    /// How many poisoned (stalled/zero-throughput) probe samples were
    /// discarded for an agent instead of reaching its tuner.
    pub fn discarded_probes(&self, agent: usize) -> usize {
        self.discarded_probes[agent]
    }

    /// Jain's fairness index of agent goodputs over a window.
    pub fn fairness(&self, agents: &[usize], from_s: f64, to_s: f64) -> f64 {
        let xs: Vec<f64> = agents
            .iter()
            .map(|&a| self.avg_mbps(a, from_s, to_s))
            .collect();
        jain_index(&xs)
    }

    /// Heap bytes the trace holds, counted by capacity: the grid's columns
    /// and the per-agent labels and vectors.
    pub fn memory_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let columns: usize = self
            .columns
            .iter()
            .map(|c| bytes(&c.mbps) + bytes(&c.runs))
            .sum();
        let labels: usize = self.labels.iter().map(String::capacity).sum();
        bytes(&self.times)
            + bytes(&self.columns)
            + columns
            + bytes(&self.labels)
            + labels
            + bytes(&self.completed_at)
            + bytes(&self.converged_at)
            + bytes(&self.restarts)
            + bytes(&self.discarded_probes)
    }
}

/// How many trace instants `t0 + k·TRACE_EVERY_S ≤ end_s`, `k ≥ 1`, a run
/// schedules: the instants form a prefix of `k`, capped at `u32::MAX` (136
/// years at one a second) so that an instant's index fits [`Column`]'s runs.
fn trace_instants(t0: f64, end_s: f64) -> usize {
    let on_grid = |k: u32| t0 + f64::from(k) * TRACE_EVERY_S <= end_s;
    // `as` saturates: NaN reads 0, anything past `u32` reads u32::MAX.
    let mut k = ((end_s - t0) / TRACE_EVERY_S) as u32;
    while k > 0 && !on_grid(k) {
        k -= 1;
    }
    while k < u32::MAX && on_grid(k + 1) {
        k += 1;
    }
    k as usize
}

/// Jain's fairness index: `(Σx)² / (n·Σx²)`; 1.0 = perfectly fair.
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sum_sq)
}

/// Drives an experiment: joins agents on schedule, samples and re-tunes
/// each at the harness's probe interval, records traces.
///
/// After applying a new setting the runner lets the transfer warm up for a
/// third of the probe interval (capped at 2 s) and then discards the
/// accumulated metrics, so the decision sample reflects steady behaviour —
/// the paper's "once the sample transfer is executed for a sufficient
/// amount of time, it captures performance metrics". Without this, freshly
/// created connections still in slow start systematically deflate the
/// utility of higher-concurrency probes.
#[derive(Default)]
pub struct Runner {
    /// Structured-event tracer. Disabled by default; install a recording
    /// tracer to capture probe, settings-change, recovery, and convergence
    /// events (agent-scoped by plan index).
    pub tracer: Tracer,
}

/// Spacing of the trace grid (seconds): a trace instant every
/// `TRACE_EVERY_S` after the run's start, at which every joined, unfinished
/// agent gets a point. [`RunTrace`] holds an instant in 8 bytes and a point
/// in about 8 more (plus 16 per settings change), so a run's trace grows by
/// `(8 + 8·agents) / TRACE_EVERY_S` bytes a second.
pub const TRACE_EVERY_S: f64 = 1.0;
/// Delay before the first restart attempt on a dead process; doubles after
/// each failed attempt (exponential backoff).
const RESTART_BACKOFF_S: f64 = 1.0;
/// Backoff ceiling for restart attempts.
const RESTART_BACKOFF_MAX_S: f64 = 30.0;
/// Probe samples below this goodput on an *attached* transfer are treated
/// as stalled/poisoned: discarded (not shown to the tuner) and the interval
/// re-probed. Real transfers always clear ~1 Mbps.
const STALL_MBPS: f64 = 1.0;

/// One plan's transfer while the run lasts.
struct Live {
    /// The tuner steering it, dropped as soon as the transfer is done:
    /// nothing reads it after that.
    tuner: Option<Box<dyn Tuner>>,
    /// The dataset, until the join moves it into the harness.
    dataset: Dataset,
    leave_s: Option<f64>,
    slot: usize,
    next_probe_s: f64,
    /// When to throw away the warm-up metrics of the current probe.
    discard_at_s: Option<f64>,
    done: bool,
    /// Watchdog state: the process is currently dead.
    detached: bool,
    /// Next restart attempt (valid while `detached`).
    retry_at_s: f64,
    /// Delay before the attempt after the next one (exponential).
    backoff_s: f64,
    /// Time of the last restart attempt. A restart's success is only
    /// judged strictly after this instant: a same-instant wakeup would see
    /// the process alive before the world had any chance to kill it again.
    verify_after_s: f64,
}

impl Live {
    /// The transfer completed or departed: it is never visited again, and
    /// its tuner's memory goes back now rather than when the run ends.
    fn finish(&mut self) {
        self.done = true;
        self.tuner = None;
    }
}

// Tie-break classes of the runner's wakeup queue: at one instant, joins
// are processed before scripted departures, agent deadlines (probes,
// warm-up discards, restart retries) before trace recording, and the end
// of the experiment last.
const WAKE_JOIN: u8 = 0;
const WAKE_LEAVE: u8 = 1;
const WAKE_AGENT: u8 = 2;
const WAKE_TRACE: u8 = 3;
const WAKE_END: u8 = 4;
/// Payload of a departure, trace or end wakeup: no single agent.
const NO_AGENT: usize = usize::MAX;

impl Runner {
    /// Run `plans` against `harness` for `duration_s`, returning the trace.
    pub fn run<H: TransferHarness>(
        &self,
        harness: &mut H,
        plans: Vec<AgentPlan>,
        duration_s: f64,
    ) -> RunTrace {
        let interval = harness.sample_interval_s();
        let warmup = (interval / 3.0).min(2.0);
        let labels: Vec<String> = plans.iter().map(|p| p.tuner.label()).collect();
        // Agent-scoped tracer handles: one per plan slot, sharing the
        // runner's sink. Tuners get theirs installed so decision events
        // carry the right agent id; convergence is detected runner-side
        // from the settings the tuners actually commit.
        let n = plans.len();
        let tracers: Vec<Tracer> = (0..n).map(|i| self.tracer.for_agent(i as u32)).collect();
        let mut convergence: Vec<ConvergenceDetector> =
            (0..n).map(|_| ConvergenceDetector::default()).collect();
        let t0 = harness.time_s();
        let end_s = t0 + duration_s;
        let instants = trace_instants(t0, end_s);
        let mut times: Vec<f64> = Vec::new();
        // A failed reservation only leaves `times` to grow as it goes.
        let _ = times.try_reserve_exact(instants);
        let mut columns: Vec<Column> = (0..n).map(|_| Column::default()).collect();
        let mut completed_at: Vec<Option<f64>> = vec![None; n];
        let mut converged_at: Vec<Option<f64>> = vec![None; n];
        let mut restarts = vec![0usize; n];
        let mut discarded_probes = vec![0usize; n];

        // The wakeup queue holds every instant the runner might need to
        // act: scheduled joins and departures, probe and warm-up-discard
        // deadlines, restart retries, trace instants, and the end of the
        // run. An agent's deadline carries the agent's index. Between
        // wakeups the harness advances in one hop (exactly to the wakeup
        // time — no tick quantization). Every deadline check is of the
        // form `now >= deadline`, so a stale entry — a deadline that moved
        // later after its wakeup was queued — is a harmless no-op, and a
        // deadline is never missed because every (re)setting site queues
        // a wakeup.
        let mut wakeups: EventQueue<usize> = EventQueue::new();
        let mut live: Vec<Live> = Vec::with_capacity(n);
        for (i, (mut plan, tracer)) in plans.into_iter().zip(&tracers).enumerate() {
            plan.tuner.set_tracer(tracer.clone());
            // A plan with a NaN start never joins.
            if !plan.start_s.is_nan() {
                wakeups.push(plan.start_s.max(t0), WAKE_JOIN, i);
            }
            if let Some(leave) = plan.leave_s {
                wakeups.push(leave.max(plan.start_s).max(t0), WAKE_LEAVE, NO_AGENT);
            }
            live.push(Live {
                tuner: Some(plan.tuner),
                dataset: plan.dataset,
                leave_s: plan.leave_s,
                slot: usize::MAX,
                next_probe_s: 0.0,
                discard_at_s: None,
                done: false,
                detached: false,
                retry_at_s: 0.0,
                backoff_s: 0.0,
                verify_after_s: f64::NEG_INFINITY,
            });
        }
        let mut trace_k: u64 = 1;
        if instants >= 1 {
            wakeups.push(t0 + TRACE_EVERY_S, WAKE_TRACE, NO_AGENT);
        }
        wakeups.push(end_s, WAKE_END, NO_AGENT);
        // The joined, not-done agents in plan order, which of them have a
        // deadline wakeup due at the current instant, and the plans due to
        // join at it.
        let mut active: Vec<usize> = Vec::new();
        let mut due = vec![false; n];
        let mut joins: Vec<usize> = Vec::new();

        while let Some((at_s, class, agent)) = wakeups.pop() {
            if at_s > end_s {
                continue;
            }
            harness.advance_until(at_s);
            let t = harness.time_s();
            self.tracer.set_time(t);

            // One pass serves every wakeup due by `t`: a second pass at the
            // same instant would find nothing left to do.
            let (mut trace_due, mut end_due) = (false, false);
            let due_now = std::iter::once((class, agent)).chain(std::iter::from_fn(|| {
                wakeups.peek().filter(|&(at, _)| at <= t)?;
                wakeups.pop().map(|(_, class, agent)| (class, agent))
            }));
            for (class, agent) in due_now {
                match class {
                    WAKE_JOIN => joins.push(agent),
                    WAKE_AGENT => due[agent] = true,
                    WAKE_TRACE => trace_due = true,
                    WAKE_END => end_due = true,
                    _ => {}
                }
            }

            // Joins, in plan order among those due together.
            joins.sort_unstable();
            for i in joins.drain(..) {
                // The dataset moves into the harness, leaving an empty one
                // that nothing reads.
                let slot = harness.join(std::mem::take(&mut live[i].dataset));
                if let Some(tuner) = live[i].tuner.as_mut() {
                    harness.apply(slot, tuner.initial());
                }
                live[i].slot = slot;
                // Stagger probe clocks: independently started transfers
                // are never phase-locked. Synchronized probing would
                // make every agent measure the *joint* gradient (flat
                // past saturation) instead of its own marginal share.
                const PHASES: [f64; 8] = [0.0, 0.37, 0.71, 0.19, 0.53, 0.89, 0.11, 0.67];
                live[i].next_probe_s = t + interval * (1.0 + PHASES[i % PHASES.len()]);
                live[i].discard_at_s = Some(t + warmup);
                wakeups.push(live[i].next_probe_s, WAKE_AGENT, i);
                wakeups.push(t + warmup, WAKE_AGENT, i);
                let at = active.partition_point(|&j| j < i);
                active.insert(at, i);
            }

            // Scripted departures.
            for &i in &active {
                if live[i].leave_s.is_some_and(|l| t >= l) {
                    harness.leave(live[i].slot);
                    live[i].finish();
                    completed_at[i].get_or_insert(t);
                }
            }

            // Completion + probes. Every live agent is checked for
            // completion and a dead process, which come without a wakeup of
            // its own; only one with a deadline due checks its deadlines.
            for &i in &active {
                let is_due = std::mem::take(&mut due[i]);
                if live[i].done {
                    continue;
                }
                let slot = live[i].slot;
                if harness.is_complete(slot) {
                    live[i].finish();
                    completed_at[i] = Some(t);
                    continue;
                }
                // Watchdog: a dead process moves no bytes and any sample it
                // "produces" is poison. Stop probing (preserving the tuner's
                // learned state), and retry restarts under exponential
                // backoff until the process is back.
                if !harness.is_attached(slot) {
                    if !live[i].detached {
                        live[i].detached = true;
                        live[i].backoff_s = RESTART_BACKOFF_S;
                        live[i].retry_at_s = t + live[i].backoff_s;
                        wakeups.push(live[i].retry_at_s, WAKE_AGENT, i);
                        tracers[i].emit(|| TraceEvent::Recovery {
                            action: "detached".to_string(),
                            value: 0.0,
                        });
                    } else if t >= live[i].retry_at_s {
                        live[i].backoff_s = (live[i].backoff_s * 2.0).min(RESTART_BACKOFF_MAX_S);
                        live[i].retry_at_s = t + live[i].backoff_s;
                        wakeups.push(live[i].retry_at_s, WAKE_AGENT, i);
                        let next_backoff_s = live[i].backoff_s;
                        tracers[i].emit(|| TraceEvent::Recovery {
                            action: "restart_attempt".to_string(),
                            value: next_backoff_s,
                        });
                        harness.restart(slot);
                        live[i].verify_after_s = t;
                    }
                    continue;
                }
                if live[i].detached {
                    if t <= live[i].verify_after_s {
                        // Same instant as the restart attempt: too early to
                        // call it recovered, and its metrics are still the
                        // dead period's. Wait for a strictly later wakeup.
                        continue;
                    }
                    // Back among the living (our restart, or the substrate
                    // recovered on its own). Start a clean measurement
                    // epoch; the tuner resumes exactly where it left off.
                    live[i].detached = false;
                    restarts[i] += 1;
                    tracers[i].emit(|| TraceEvent::Recovery {
                        action: "restarted".to_string(),
                        value: 0.0,
                    });
                    let _ = harness.sample(slot); // drop dead-period metrics
                    live[i].next_probe_s = t + interval;
                    live[i].discard_at_s = Some(t + warmup);
                    wakeups.push(live[i].next_probe_s, WAKE_AGENT, i);
                    wakeups.push(t + warmup, WAKE_AGENT, i);
                }
                if !is_due {
                    // Every deadline queues its own wakeup.
                    debug_assert!(live[i].discard_at_s.is_none_or(|d| d > t));
                    debug_assert!(live[i].next_probe_s > t);
                    continue;
                }
                if let Some(discard_at) = live[i].discard_at_s {
                    if t >= discard_at {
                        let _ = harness.sample(slot); // drop warm-up metrics
                        live[i].discard_at_s = None;
                    }
                }
                if t >= live[i].next_probe_s {
                    let metrics = harness.sample(slot);
                    if metrics.interval_s <= 0.0 || metrics.aggregate_mbps < STALL_MBPS {
                        // Stalled interval on an attached transfer: the
                        // sample says nothing about the chosen setting, so
                        // discard it and re-probe rather than letting the
                        // tuner chase a phantom utility collapse.
                        discarded_probes[i] += 1;
                        tracers[i].emit(|| TraceEvent::Recovery {
                            action: "stalled_probe".to_string(),
                            value: metrics.aggregate_mbps,
                        });
                    } else {
                        tracers[i].emit(|| TraceEvent::Probe {
                            throughput_mbps: metrics.aggregate_mbps,
                            loss_rate: metrics.loss_rate,
                            concurrency: metrics.settings.concurrency,
                            parallelism: metrics.settings.parallelism,
                            pipelining: metrics.settings.pipelining,
                        });
                        let prev = harness.current_settings(slot);
                        let settings = match live[i].tuner.as_mut() {
                            Some(tuner) => tuner.on_sample(&metrics),
                            None => prev,
                        };
                        harness.apply(slot, settings);
                        if settings != prev {
                            tracers[i].emit(|| TraceEvent::SettingsChange {
                                concurrency: settings.concurrency,
                                parallelism: settings.parallelism,
                                pipelining: settings.pipelining,
                            });
                        }
                        if let Some((cc, probes)) = convergence[i].observe(settings.concurrency) {
                            converged_at[i].get_or_insert(t);
                            tracers[i].emit(|| TraceEvent::Convergence {
                                concurrency: cc,
                                probes,
                            });
                        }
                    }
                    // falcon-lint::allow(float-time-accum, reason = "probe cadence is anchored at join and after a restart; between those each probe adds one interval, at most half an ulp of rounding per probe, and the probe instants are pinned by the golden traces")
                    live[i].next_probe_s += interval;
                    live[i].discard_at_s = Some(t + warmup);
                    wakeups.push(live[i].next_probe_s, WAKE_AGENT, i);
                    wakeups.push(t + warmup, WAKE_AGENT, i);
                }
            }
            active.retain(|&i| {
                if live[i].done {
                    columns[i].close();
                }
                !live[i].done
            });

            // Trace.
            if trace_due {
                let k = times.len();
                times.push(t);
                for &i in &active {
                    let slot = live[i].slot;
                    columns[i].push(
                        k,
                        instants.saturating_sub(k),
                        harness.instantaneous_mbps(slot),
                        harness.current_settings(slot),
                    );
                }
                // Drift-free trace grid: the k-th trace instant is
                // t0 + k·Δ, never an accumulated sum.
                trace_k += 1;
                if trace_k <= instants as u64 {
                    wakeups.push(t0 + trace_k as f64 * TRACE_EVERY_S, WAKE_TRACE, NO_AGENT);
                }
            }

            if end_due {
                break;
            }
        }

        // A harness that overshoots its wakeups (real time) may serve
        // fewer instants than the grid has.
        times.shrink_to_fit();
        columns.iter_mut().for_each(Column::close);
        RunTrace {
            labels,
            times,
            columns,
            completed_at,
            converged_at,
            restarts,
            discarded_probes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::SimHarness;
    use falcon_core::FalconAgent;
    use falcon_sim::{Environment, Simulation};

    fn harness(env: Environment, seed: u64) -> SimHarness {
        SimHarness::new(Simulation::new(env, seed))
    }

    #[test]
    fn jain_index_properties() {
        assert!((jain_index(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // One agent hogging: index → 1/n.
        assert!((jain_index(&[1.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
        // Paper's HARP case: one transfer at ~2x the other.
        let unfair = jain_index(&[7.0, 14.0]);
        assert!(unfair < 0.95, "got {unfair}");
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn trace_grid_costs_eight_bytes_a_point() {
        // Five agents for 12,000 s through a capacity flap, four joining at
        // t = 0 and one later: ~60,000 points, which a 32-byte point
        // apiece would hold in 1.9 MB.
        use falcon_sim::{EnvironmentEvent, EventAction};
        let mut h = harness(Environment::emulab(100.0), 7);
        let flap = |at, factor| {
            EnvironmentEvent::at(
                at,
                EventAction::LinkCapacityFactor {
                    resource: None,
                    factor,
                },
            )
        };
        h.sim_mut()
            .try_add_events([flap(4000.0, 0.3), flap(8000.0, 1.0)])
            .unwrap();
        let endless = || Dataset::uniform_1gb(1 << 20);
        let fixed = FixedTuner {
            settings: TransferSettings::with_concurrency(4),
            name: "fixed-4".into(),
        };
        let plans = vec![
            AgentPlan::at_start(Box::new(FalconAgent::hill_climbing(32)), endless()),
            AgentPlan::at_start(Box::new(FalconAgent::gradient_descent(32)), endless()),
            AgentPlan::at_start(Box::new(FalconAgent::bayesian(32, 3)), endless()),
            AgentPlan::joining_at(Box::new(fixed), endless(), 200.0),
            AgentPlan::joining_at(
                Box::new(FalconAgent::gradient_descent(32)),
                endless(),
                100.0,
            ),
        ];
        let trace = Runner::default().run(&mut h, plans, 12_000.0);
        let points = trace.points().count();
        let instants = trace.times.len();
        let runs: usize = trace.columns.iter().map(|c| c.runs.len()).sum();
        assert_eq!(instants, 12_000);
        assert!(points > 59_000, "{points} points");
        // Stated slack: 256 bytes per agent for its column header, label
        // and per-agent fields.
        let ceiling = 8 * points + 8 * instants + 16 * runs + 256 * trace.labels.len();
        let bytes = trace.memory_bytes();
        assert!(
            (8 * points..=ceiling).contains(&bytes),
            "{bytes} B for {points} points, {instants} instants, {runs} runs (ceiling {ceiling} B)"
        );
    }

    #[test]
    fn single_gd_agent_converges_in_emulab10() {
        let mut h = harness(Environment::emulab(100.0).without_noise(), 5);
        let plan = AgentPlan::at_start(
            Box::new(FalconAgent::gradient_descent(32)),
            Dataset::uniform_1gb(10_000),
        );
        let trace = Runner::default().run(&mut h, vec![plan], 200.0);
        // After convergence, throughput near 1 Gbps and cc near 10.
        let avg = trace.avg_mbps(0, 120.0, 200.0);
        assert!(avg > 850.0, "avg {avg}");
        let cc = trace.avg_concurrency(0, 120.0, 200.0);
        assert!((8.0..=13.0).contains(&cc), "cc {cc}");
    }

    #[test]
    fn fixed_tuner_never_moves() {
        let mut h = harness(Environment::emulab(100.0).without_noise(), 5);
        let plan = AgentPlan::at_start(
            Box::new(FixedTuner {
                settings: TransferSettings::with_concurrency(3),
                name: "fixed-3".into(),
            }),
            Dataset::uniform_1gb(10_000),
        );
        let trace = Runner::default().run(&mut h, vec![plan], 60.0);
        for (_, _, cc) in trace.series(0) {
            assert_eq!(cc, 3);
        }
        assert_eq!(trace.labels[0], "fixed-3");
    }

    #[test]
    fn late_joiner_appears_at_its_start_time() {
        let mut h = harness(Environment::emulab(100.0).without_noise(), 5);
        let plans = vec![
            AgentPlan::at_start(
                Box::new(FalconAgent::gradient_descent(32)),
                Dataset::uniform_1gb(10_000),
            ),
            AgentPlan::joining_at(
                Box::new(FalconAgent::gradient_descent(32)),
                Dataset::uniform_1gb(10_000),
                100.0,
            ),
        ];
        let trace = Runner::default().run(&mut h, plans, 200.0);
        let first_b = trace
            .points()
            .find(|p| p.agent == 1)
            .map(|p| p.t_s)
            .unwrap();
        assert!((100.0..105.0).contains(&first_b), "joined at {first_b}");
        assert!(trace.avg_mbps(1, 150.0, 200.0) > 100.0);
    }

    #[test]
    fn scripted_departure_stops_traces() {
        let mut h = harness(Environment::emulab(100.0).without_noise(), 5);
        let plans = vec![AgentPlan::at_start(
            Box::new(FalconAgent::gradient_descent(32)),
            Dataset::uniform_1gb(10_000),
        )
        .leaving_at(50.0)];
        let trace = Runner::default().run(&mut h, plans, 100.0);
        let last = trace.series(0).last().map(|&(t, _, _)| t).unwrap();
        assert!(last <= 51.0, "traced past departure: {last}");
        assert!(trace.completed_at[0].is_some());
    }

    #[test]
    fn completion_recorded_for_small_dataset() {
        let mut h = harness(Environment::emulab(100.0).without_noise(), 5);
        // 10 × 1 GB ≈ 80 Gbit at ~1 Gbps → ~80-120 s with search overhead.
        let plans = vec![AgentPlan::at_start(
            Box::new(FalconAgent::gradient_descent(32)),
            Dataset::uniform_1gb(10),
        )];
        let trace = Runner::default().run(&mut h, plans, 400.0);
        let done = trace.completed_at[0].expect("never completed");
        assert!((60.0..300.0).contains(&done), "completed at {done}");
    }

    #[test]
    fn overhead_accounting_matches_fixed_settings() {
        let mut h = harness(Environment::emulab(100.0).without_noise(), 5);
        let plan = AgentPlan::at_start(
            Box::new(FixedTuner {
                settings: TransferSettings {
                    concurrency: 8,
                    parallelism: 2,
                    pipelining: 1,
                },
                name: "fixed".into(),
            }),
            Dataset::uniform_1gb(10_000),
        );
        let trace = Runner::default().run(&mut h, vec![plan], 100.0);
        // 8 processes for ~100 s ≈ 800 process-seconds.
        let ps = trace.process_seconds(0, 0.0, 100.0);
        assert!((750.0..=800.0).contains(&ps), "process-seconds {ps}");
        assert_eq!(trace.settings_changes(0, 0.0, 100.0), 0);
    }

    #[test]
    fn falcon_changes_settings_continuously() {
        let mut h = harness(Environment::emulab(100.0).without_noise(), 5);
        let plan = AgentPlan::at_start(
            Box::new(FalconAgent::gradient_descent(32)),
            Dataset::uniform_1gb(10_000),
        );
        let trace = Runner::default().run(&mut h, vec![plan], 200.0);
        // Continuous optimization: probes change settings even at steady
        // state (the paper's n−1/n+1 bounce).
        let churn = trace.settings_changes(0, 120.0, 200.0);
        assert!(churn >= 8, "churn {churn}");
    }

    #[test]
    fn trace_csv_has_header_and_rows() {
        let mut h = harness(Environment::emulab(100.0).without_noise(), 5);
        let plan = AgentPlan::at_start(
            Box::new(FalconAgent::gradient_descent(32)),
            Dataset::uniform_1gb(10_000),
        );
        let trace = Runner::default().run(&mut h, vec![plan], 30.0);
        let csv = trace.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "t_s,agent,label,mbps,concurrency,parallelism,pipelining"
        );
        let n_rows = lines.count();
        assert!(n_rows >= 25, "only {n_rows} rows");
        assert!(csv.contains("falcon-gradient-descent"));
    }

    /// Run one plan for 300 s under a recording tracer; returns the trace
    /// and agent 0's `(action, value)` recovery records in emission order.
    fn run_recording_recovery(
        h: &mut SimHarness,
        plan: AgentPlan,
    ) -> (RunTrace, Vec<(String, f64)>) {
        let tracer = Tracer::recording();
        let runner = Runner {
            tracer: tracer.clone(),
        };
        let trace = runner.run(h, vec![plan], 300.0);
        let events = tracer
            .take_log()
            .records
            .into_iter()
            .filter(|r| r.agent == Some(0))
            .filter_map(|r| match r.event {
                TraceEvent::Recovery { action, value } => Some((action, value)),
                _ => None,
            })
            .collect();
        (trace, events)
    }

    #[test]
    fn watchdog_restarts_killed_agent_and_it_reconverges() {
        use falcon_sim::{EnvironmentEvent, EventAction};
        let mut h = harness(Environment::emulab(100.0).without_noise(), 9);
        h.sim_mut()
            .try_add_events([EnvironmentEvent::at(
                100.0,
                EventAction::KillAgent { agent: 0 },
            )])
            .unwrap();
        let plan = AgentPlan::at_start(
            Box::new(FalconAgent::gradient_descent(32)),
            Dataset::uniform_1gb(100_000),
        );
        let (trace, events) = run_recording_recovery(&mut h, plan);
        assert!(
            events.iter().any(|(action, _)| action == "detached"),
            "no detached record: {events:?}"
        );
        let restarted = events.iter().filter(|(a, _)| a == "restarted").count();
        assert_eq!(restarted, 1, "events: {events:?}");
        assert_eq!(trace.restarts(0), 1, "events: {events:?}");
        // Tuner state survived the crash: converged again to ~1 Gbps.
        let avg = trace.avg_mbps(0, 220.0, 300.0);
        assert!(avg > 850.0, "post-restart avg {avg}");
    }

    #[test]
    fn restart_attempts_back_off_exponentially() {
        use falcon_sim::{EnvironmentEvent, EventAction};
        // SimHarness restarts always succeed, so fake a persistent outage:
        // re-kill the agent every 50 ms for 8 s. Each restart attempt is
        // immediately undone, and the watchdog's backoff must grow.
        let mut h = harness(Environment::emulab(100.0).without_noise(), 9);
        let mut t = 100.0;
        while t < 108.0 {
            h.sim_mut()
                .try_add_events([EnvironmentEvent::at(t, EventAction::KillAgent { agent: 0 })])
                .unwrap();
            t += 0.05;
        }
        let plan = AgentPlan::at_start(
            Box::new(FalconAgent::gradient_descent(32)),
            Dataset::uniform_1gb(100_000),
        );
        let (trace, events) = run_recording_recovery(&mut h, plan);
        // A `restart_attempt` record's value is the next backoff.
        let attempts: Vec<f64> = events
            .iter()
            .filter(|(action, _)| action == "restart_attempt")
            .map(|&(_, next_backoff_s)| next_backoff_s)
            .collect();
        assert!(attempts.len() >= 2, "attempts: {attempts:?}");
        // Backoff doubles between consecutive failed attempts of one
        // outage (2.0 after the first try, then 4.0).
        assert!(attempts.windows(2).any(|w| w[1] > w[0]), "{attempts:?}");
        // And the transfer still ends up healthy.
        let avg = trace.avg_mbps(0, 220.0, 300.0);
        assert!(avg > 850.0, "post-restart avg {avg}");
    }

    #[test]
    fn stalled_probes_are_discarded_not_fed_to_tuner() {
        use falcon_sim::{EnvironmentEvent, EventAction};
        // Blackhole the link (0.01% capacity) for 60 s mid-run. The GD
        // tuner must not see the zero samples, so its concurrency holds
        // and throughput snaps back on restore.
        let mut h = harness(Environment::emulab(100.0).without_noise(), 9);
        h.sim_mut()
            .try_add_events([
                EnvironmentEvent::at(
                    150.0,
                    EventAction::LinkCapacityFactor {
                        resource: None,
                        factor: 0.0001,
                    },
                ),
                EnvironmentEvent::at(
                    210.0,
                    EventAction::LinkCapacityFactor {
                        resource: None,
                        factor: 1.0,
                    },
                ),
            ])
            .unwrap();
        let plan = AgentPlan::at_start(
            Box::new(FalconAgent::gradient_descent(32)),
            Dataset::uniform_1gb(100_000),
        );
        let trace = Runner::default().run(&mut h, vec![plan], 300.0);
        assert!(
            trace.discarded_probes(0) >= 5,
            "{}",
            trace.discarded_probes(0)
        );
        let cc_during = trace.avg_concurrency(0, 160.0, 210.0);
        assert!(cc_during > 5.0, "concurrency collapsed to {cc_during}");
        let after = trace.avg_mbps(0, 240.0, 300.0);
        assert!(after > 850.0, "post-outage avg {after}");
    }

    #[test]
    fn two_gd_agents_share_fairly() {
        // The headline fairness property (Figure 11): competing Falcon-GD
        // agents end with near-identical throughput.
        let mut h = harness(Environment::emulab(100.0), 5);
        let plans = vec![
            AgentPlan::at_start(
                Box::new(FalconAgent::gradient_descent(32)),
                Dataset::uniform_1gb(100_000),
            ),
            AgentPlan::joining_at(
                Box::new(FalconAgent::gradient_descent(32)),
                Dataset::uniform_1gb(100_000),
                120.0,
            ),
        ];
        let trace = Runner::default().run(&mut h, plans, 420.0);
        let fair = trace.fairness(&[0, 1], 300.0, 420.0);
        assert!(fair > 0.93, "Jain index {fair}");
        // And the pair still uses most of the link.
        let total = trace.avg_mbps(0, 300.0, 420.0) + trace.avg_mbps(1, 300.0, 420.0);
        assert!(total > 700.0, "aggregate {total}");
    }
}
