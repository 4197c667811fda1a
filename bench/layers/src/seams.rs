//! Every use of a product API by the benchmark lives in this file.
//!
//! The traced run re-composes each workload in-process from public seams
//! only: `TransferHarness` and `Tuner` are public traits, so the simulator
//! harness and every tuner are wrapped in timing decorators and handed to
//! the real `Runner::run`; the scale campaign, the allocator, the event
//! queue, an RL agent and the loopback engine are called directly. When a
//! later change moves one of these APIs, this is the one file to fix.

use std::time::{Duration, Instant};

use falcon_baselines::{GlobusTuner, HarpHistory, HarpTuner};
use falcon_cli::scenario::{self, Scenario};
use falcon_core::{FalconAgent, ProbeMetrics, SearchBounds, TransferSettings};
use falcon_fleet::{
    correlated_failure_waves, generate, run_scale_campaign, FleetTopology, FleetTuner,
    ScaleCampaignSpec, ScaleTopology, ScaleTuner, ScaleWorkload, Workload, PROBE_INTERVAL_S,
};
use falcon_net::{LoopbackConfig, LoopbackTransfer, Receiver};
use falcon_sim::alloc::IncrementalMaxMin;
use falcon_sim::{EventQueue, Simulation};
use falcon_trace::{EventKind, TraceLog, Tracer};
use falcon_transfer::dataset::Dataset;
use falcon_transfer::harness::{SimHarness, TransferHarness};
use falcon_transfer::runner::{AgentPlan, Runner, Tuner};

use crate::spans::Recorder;

// ---------------------------------------------------------------------
// Timing decorators
// ---------------------------------------------------------------------

/// A [`TransferHarness`] that records a span around every call that does
/// work. The getters the runner polls at each wakeup are passed through
/// untimed: they are a field read each, and their time stays in the
/// runner's self time.
pub struct TimedHarness<H> {
    inner: H,
    rec: Recorder,
}

impl<H: TransferHarness> TransferHarness for TimedHarness<H> {
    fn join(&mut self, dataset: Dataset) -> usize {
        let Self { inner, rec } = self;
        rec.time("sim.join_leave", || inner.join(dataset))
    }
    fn apply(&mut self, agent: usize, settings: TransferSettings) {
        let Self { inner, rec } = self;
        rec.time("sim.apply", || inner.apply(agent, settings));
    }
    fn advance(&mut self, dt_s: f64) {
        let Self { inner, rec } = self;
        rec.time("sim.advance", || inner.advance(dt_s));
    }
    fn advance_until(&mut self, t_s: f64) {
        let Self { inner, rec } = self;
        rec.time("sim.advance", || inner.advance_until(t_s));
    }
    fn set_time_resolution(&mut self, dt_s: f64) {
        self.inner.set_time_resolution(dt_s);
    }
    fn sample(&mut self, agent: usize) -> ProbeMetrics {
        let Self { inner, rec } = self;
        rec.time("sim.sample", || inner.sample(agent))
    }
    fn instantaneous_mbps(&self, agent: usize) -> f64 {
        self.inner.instantaneous_mbps(agent)
    }
    fn current_settings(&self, agent: usize) -> TransferSettings {
        self.inner.current_settings(agent)
    }
    fn is_complete(&self, agent: usize) -> bool {
        self.inner.is_complete(agent)
    }
    fn leave(&mut self, agent: usize) {
        let Self { inner, rec } = self;
        rec.time("sim.join_leave", || inner.leave(agent));
    }
    fn time_s(&self) -> f64 {
        self.inner.time_s()
    }
    fn sample_interval_s(&self) -> f64 {
        self.inner.sample_interval_s()
    }
    fn max_concurrency(&self) -> u32 {
        self.inner.max_concurrency()
    }
    fn is_attached(&self, agent: usize) -> bool {
        self.inner.is_attached(agent)
    }
    fn restart(&mut self, agent: usize) -> bool {
        let Self { inner, rec } = self;
        rec.time("sim.join_leave", || inner.restart(agent))
    }
}

/// A [`Tuner`] that records a `<layer>.decide` span around each decision.
struct TimedTuner {
    inner: Box<dyn Tuner>,
    span: &'static str,
    rec: Recorder,
}

impl Tuner for TimedTuner {
    fn label(&self) -> String {
        self.inner.label()
    }
    fn initial(&mut self) -> TransferSettings {
        // Untimed: it returns a stored setting, and leaving it out keeps
        // one span per probe decision.
        self.inner.initial()
    }
    fn on_sample(&mut self, metrics: &ProbeMetrics) -> TransferSettings {
        let Self { inner, span, rec } = self;
        rec.time(span, || inner.on_sample(metrics))
    }
    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer);
    }
}

/// The layer (crate) a tuner's decisions are charged to.
fn decide_span(tuner: &str) -> &'static str {
    match tuner {
        "falcon-bo" => "gp.decide",
        t if t.starts_with("rl:") => "rl.decide",
        t if t.starts_with("falcon-") => "core.decide",
        _ => "baselines.decide",
    }
}

// ---------------------------------------------------------------------
// Scenario and classic-fleet composition (mirrors falcon-cli's private
// `run_with_tracer` and falcon-fleet's `run_campaign_with_tracer`)
// ---------------------------------------------------------------------

/// Mirror of `scenario::make_tuner` for a scenario without an
/// `[optimizer]` section.
fn make_tuner(spec: &str, max_cc: u32, seed: u64) -> Result<Box<dyn Tuner>, String> {
    if let Some(gbps) = spec.strip_prefix("harp:") {
        let g: f64 = gbps
            .parse()
            .map_err(|_| format!("harp:{gbps}: bad capacity"))?;
        return Ok(Box::new(HarpTuner::new(HarpHistory::for_capacity_gbps(g))));
    }
    Ok(match spec {
        "falcon-mp" => Box::new(FalconAgent::multi_parameter(SearchBounds::multi_parameter(
            max_cc, 8, 32,
        ))),
        "globus" => Box::new(GlobusTuner::for_dataset(&Dataset::uniform_1gb(1000))),
        "harp" => Box::new(HarpTuner::new(HarpHistory::ten_gig_corpus())),
        "harp-rt" => {
            Box::new(HarpTuner::new(HarpHistory::ten_gig_corpus()).with_runtime_retuning(4))
        }
        // The CLI warm-starts `rl:warm` from a different corpus than the
        // fleet constructor; refuse rather than time another computation.
        "rl:warm" => return Err("rl:warm is not mirrored by the benchmark".into()),
        other => FleetTuner::from_name(other)
            .ok_or(format!("unknown tuner {other:?}"))?
            .make(max_cc, seed),
    })
}

fn make_dataset(spec: &str) -> Result<Dataset, String> {
    if let Some(count) = spec.strip_prefix("1gb:") {
        return count
            .parse()
            .map(Dataset::uniform_1gb)
            .map_err(|_| format!("dataset {spec}: bad count"));
    }
    match spec {
        "small" => Ok(Dataset::small(1)),
        "large" => Ok(Dataset::large(1)),
        "mixed" => Ok(Dataset::mixed(1)),
        other => Err(format!("unknown dataset {other:?}")),
    }
}

/// One parsed input file. Opaque to the rest of the benchmark.
pub struct Input(Scenario);

impl Input {
    /// `scenario::parse`, timed: `(input, parse_s)`.
    pub fn parse(text: &str) -> Result<(Input, f64), String> {
        let t0 = Instant::now();
        let sc = scenario::parse(text).map_err(|e| e.to_string())?;
        Ok((Input(sc), t0.elapsed().as_secs_f64()))
    }
}

/// What the CLI prints for an `[agent]` scenario, computed the way the CLI
/// computes it (undecorated, tracer disabled): `(stdout, run_s, render_s)`.
pub fn cli_equivalent(input: &Input) -> Result<(String, f64, f64), String> {
    let sc = &input.0;
    let t0 = Instant::now();
    let trace = scenario::run_trace(sc).map_err(|e| e.to_string())?;
    let run_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let text = scenario::render(sc, &trace).map_err(|e| e.to_string())?;
    Ok((text, run_s, t1.elapsed().as_secs_f64()))
}

/// What the CLI prints for any scenario file (fleet ones included).
pub fn cli_stdout(input: &Input) -> Result<String, String> {
    scenario::run(&input.0).map_err(|e| e.to_string())
}

/// The simulator's step counters, which it keeps only while a tracer records.
pub struct SimCounters {
    pub steps: u64,
    pub alloc_runs: u64,
    pub alloc_skips: u64,
}

impl SimCounters {
    fn of(log: &TraceLog) -> SimCounters {
        let counter = |name| log.counter(name).unwrap_or(0);
        SimCounters {
            steps: counter("sim.steps"),
            alloc_runs: counter("sim.alloc_runs"),
            alloc_skips: counter("sim.alloc_skips"),
        }
    }
}

/// Counters and sizes of one recorded (tracer enabled, undecorated) run.
pub struct Recorded {
    pub wall_s: f64,
    pub events: u64,
    pub probes: u64,
    pub jsonl_bytes: u64,
    pub export_s: f64,
    pub sim: SimCounters,
}

/// Run an `[agent]` scenario with a recording tracer, as `falcon scenario
/// --trace` does, and export the log.
pub fn recorded_run(input: &Input) -> Result<Recorded, String> {
    let t0 = Instant::now();
    let (_, log) = scenario::run_traced(&input.0).map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let jsonl = log.to_jsonl();
    let export_s = t1.elapsed().as_secs_f64();
    let probes = log
        .records
        .iter()
        .filter(|r| r.event.kind() == EventKind::Probe)
        .count();
    Ok(Recorded {
        wall_s,
        events: log.records.len() as u64,
        probes: probes as u64,
        jsonl_bytes: jsonl.len() as u64,
        export_s,
        sim: SimCounters::of(&log),
    })
}

/// The decorated run of one scenario file: the same harness, tuners and
/// runner the CLI composes, each behind a timing decorator, inside one
/// `transfer.run` span. `Runner::run`'s return value is dropped on purpose
/// (the runner-side trace is slated for removal). Returns the simulator's
/// counters when the CLI path records (classic fleet), else `None`.
pub fn decorated_run(input: &Input, rec: &Recorder) -> Result<Option<SimCounters>, String> {
    let sc = &input.0;
    let (sim, paths, plans, tracer) = match &sc.fleet {
        None => {
            let env = falcon_cli::run::resolve_env(&sc.env)
                .ok_or(format!("unknown environment {:?}", sc.env))?;
            let max_cc = env.max_concurrency;
            let mut sim = Simulation::new(env, sc.seed);
            for bg in &sc.background {
                sim.add_background_flow(*bg);
            }
            sim.try_add_events(sc.events.iter().copied())
                .map_err(|e| format!("[event] rejected: {e}"))?;
            let mut plans = Vec::new();
            for (i, a) in sc.agents.iter().enumerate() {
                let tuner = make_tuner(&a.tuner, max_cc, sc.seed.wrapping_add(i as u64))?;
                let timed = TimedTuner {
                    inner: tuner,
                    span: decide_span(&a.tuner),
                    rec: rec.clone(),
                };
                let mut plan =
                    AgentPlan::joining_at(Box::new(timed), make_dataset(&a.dataset)?, a.start_s);
                if let Some(leave) = a.leave_s {
                    plan = plan.leaving_at(leave);
                }
                plans.push(plan);
            }
            (sim, None, plans, Tracer::disabled())
        }
        Some(f) if f.topology.is_none() => {
            let tuner = FleetTuner::from_name(&f.tuner)
                .ok_or(format!("unknown fleet tuner {:?}", f.tuner))?;
            let topology = FleetTopology::multi_bottleneck(&f.links_mbps);
            let workload = Workload {
                transfers: f.transfers,
                arrivals_per_min: f.arrivals_per_min,
                mean_file_mb: f.mean_file_mb,
                anchor_gb: f.anchor_gb,
            };
            let specs = generate(&topology, &workload, sc.seed);
            // The CLI records on this path even without --trace: the fleet
            // report is derived from convergence markers.
            let tracer = Tracer::recording();
            let mut sim = Simulation::new(topology.env.clone(), sc.seed);
            sim.set_tracer(tracer.clone());
            let masks: Vec<u64> = specs.iter().map(|t| topology.paths[t.path].mask).collect();
            let max_cc = topology.env.max_concurrency;
            let plans = specs
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let timed = TimedTuner {
                        inner: tuner.make(max_cc, sc.seed.wrapping_add(i as u64)),
                        span: decide_span(&f.tuner),
                        rec: rec.clone(),
                    };
                    AgentPlan::joining_at(Box::new(timed), t.dataset.clone(), t.start_s)
                })
                .collect();
            (sim, Some(masks), plans, tracer)
        }
        Some(_) => return Err("scale campaigns have no runner to decorate".into()),
    };
    let mut harness = SimHarness::new(sim);
    if let Some(masks) = paths {
        harness = harness.with_agent_paths(masks);
    }
    let mut timed = TimedHarness {
        inner: harness,
        rec: rec.clone(),
    };
    let runner = Runner {
        tracer: tracer.clone(),
        ..Runner::default()
    };
    rec.run("transfer.run", || {
        let _ = runner.run(&mut timed, plans, sc.duration_s);
    });
    if !tracer.is_enabled() {
        return Ok(None);
    }
    Ok(Some(SimCounters::of(&tracer.take_log())))
}

// ---------------------------------------------------------------------
// Scale campaigns (mirrors falcon-cli's private `fleet_scale_spec`)
// ---------------------------------------------------------------------

/// What one campaign run reported, as plain numbers.
pub struct CampaignFigures {
    /// What the CLI prints for this campaign.
    pub stdout: String,
    pub transfers: u64,
    pub solves: u64,
    pub probes: u64,
    pub peak_active: u64,
    pub resolved_per_solve: f64,
    pub state_bytes_per_transfer: f64,
    /// Mean live transfers over the campaign (Little's law on the report).
    pub mean_live: f64,
    pub shards: u64,
}

/// A scale campaign built from its input file.
pub struct Campaign {
    spec: ScaleCampaignSpec,
}

impl Campaign {
    pub fn from_input(input: &Input) -> Result<Campaign, String> {
        let sc = &input.0;
        let f = sc.fleet.as_ref().ok_or("scenario has no [fleet] section")?;
        let spec_str = f
            .topology
            .as_deref()
            .ok_or("fleet scenario has no topology key")?;
        let topology =
            ScaleTopology::from_spec(spec_str).ok_or(format!("bad fleet topology {spec_str:?}"))?;
        let mut workload = ScaleWorkload {
            transfers: f.transfers,
            arrivals_per_min: f.arrivals_per_min,
            mean_file_mb: f.mean_file_mb,
            diurnal: f.diurnal,
            tenants: f.tenants,
            ..ScaleWorkload::default()
        };
        if let Some(cc) = f.tuner.strip_prefix("fixed:") {
            workload.concurrency = cc
                .parse()
                .map_err(|_| format!("bad fixed tuner {:?}", f.tuner))?;
        } else if let Some(FleetTuner::Rl(kind)) = FleetTuner::from_name(&f.tuner) {
            workload.tuner = ScaleTuner::Rl(kind);
        }
        let failures = correlated_failure_waves(&topology, f.failures, sc.duration_s);
        Ok(Campaign {
            spec: ScaleCampaignSpec {
                topology,
                workload,
                failures,
                duration_s: sc.duration_s,
                seed: sc.seed,
                shards: f.shards,
            },
        })
    }

    /// The tuners' search ceiling (the pinned count under `fixed:<cc>`).
    pub fn max_concurrency(&self) -> u32 {
        self.spec.workload.concurrency.max(1)
    }

    /// One timed campaign at `threads` workers: `(figures, wall_s)`.
    pub fn run(&self, threads: usize) -> (CampaignFigures, f64) {
        let t0 = Instant::now();
        let report = run_scale_campaign(&self.spec, threads);
        let wall_s = t0.elapsed().as_secs_f64();
        let figures = CampaignFigures {
            stdout: format!(
                "# scenario fleet-scale duration={:.0}s seed={}\n{}",
                self.spec.duration_s,
                self.spec.seed,
                report.summary()
            ),
            transfers: report.transfers,
            solves: report.solves,
            probes: report.probes,
            peak_active: u64::from(report.peak_active),
            resolved_per_solve: report.mean_resolved_per_solve(),
            state_bytes_per_transfer: report.bytes_per_transfer(),
            mean_live: report.completions as f64 * report.mean_duration_s
                / report.makespan_s.max(1e-9),
            shards: u64::from(report.shards),
        };
        (figures, wall_s)
    }
}

// ---------------------------------------------------------------------
// Replay drivers: per-op cost of the layers `run_scale_campaign` hides
// ---------------------------------------------------------------------

/// Knuth's 64-bit LCG: the replays need repeatable pseudo-random choices,
/// not quality.
struct Lcg(u64);

impl Lcg {
    /// Uniform in (0, 1], so its logarithm is finite.
    fn unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// One shard's worth of `IncrementalMaxMin` work, replayed without the
/// rest of the shard loop: Poisson arrivals on the shard's routes with
/// exponential lifetimes matched to the campaign's mean live count, each
/// arrival followed by the campaign's ratio of tuner re-ratings
/// (`update_stream`), and a `solve` after every mutation. It runs the
/// shard's own number of arrivals, because the cost of a solve depends on
/// how much churn the allocator has already seen.
pub struct AllocReplay {
    /// Host ns per solve, including the mutation that dirtied it.
    pub ns_per_solve: f64,
    pub resolved_per_solve: f64,
    pub bytes_per_stream: f64,
    pub mean_live: f64,
}

pub fn replay_allocator(campaign: &Campaign, fig: &CampaignFigures) -> AllocReplay {
    let spec = &campaign.spec;
    let shards = fig.shards.max(1);
    let caps: Vec<f64> = spec
        .topology
        .links
        .iter()
        .map(|l| l.capacity_mbps)
        .collect();
    let max_cc = spec.workload.concurrency.max(1);
    let per_conn_cap = spec.workload.per_conn_cap_mbps;
    let per_conn_weight = |rtt_s: f64| (0.020 / rtt_s.max(1e-4)).min(50.0);
    // Shard 0's routes, by the engine's own rule (component id mod shards).
    let comps = spec.topology.route_components();
    let routes: Vec<_> = spec
        .topology
        .routes
        .iter()
        .zip(&comps)
        .filter(|(_, &c)| u64::from(c) % shards == 0)
        .map(|(r, _)| r)
        .collect();
    let arrivals = (fig.transfers / shards).max(1);
    let lifetime = fig.mean_live / shards as f64; // in mean inter-arrival times
    let updates_per_arrival = (fig.solves as f64 / fig.transfers.max(1) as f64 - 2.0).max(0.0);

    let mut rng = Lcg(0x9E37_79B9_7F4A_7C15);
    let mut unit = move || rng.unit();
    let mut alloc = IncrementalMaxMin::with_links(&caps);
    // Live streams as (departure time, id, route); the earliest is found by
    // scan, which is cheap at the live counts campaigns reach per shard.
    let mut live: Vec<(f64, u32, usize)> = Vec::new();
    let (mut now, mut owed_updates, mut live_sum, mut peak_bytes) =
        (0.0f64, 0.0f64, 0usize, 0usize);
    let t0 = Instant::now();
    for _ in 0..arrivals {
        now -= unit().ln();
        while let Some(i) = (0..live.len())
            .filter(|&i| live[i].0 <= now)
            .min_by(|&a, &b| live[a].0.total_cmp(&live[b].0))
        {
            let (_, id, _) = live.swap_remove(i);
            alloc.remove_stream(id);
            std::hint::black_box(alloc.solve().len());
        }
        let r = (unit() * routes.len() as f64) as usize % routes.len();
        let cc = f64::from(max_cc);
        let id = alloc.add_stream(
            cc * per_conn_cap,
            cc * per_conn_weight(routes[r].rtt_s),
            &routes[r].links,
        );
        live.push((now - lifetime * unit().ln(), id, r));
        std::hint::black_box(alloc.solve().len());
        owed_updates += updates_per_arrival;
        while owed_updates >= 1.0 {
            owed_updates -= 1.0;
            let (_, id, r) = live[(unit() * live.len() as f64) as usize % live.len()];
            let cc = f64::from(1 + (unit() * f64::from(max_cc)) as u32 % max_cc);
            alloc.update_stream(id, cc * per_conn_cap, cc * per_conn_weight(routes[r].rtt_s));
            std::hint::black_box(alloc.solve().len());
        }
        live_sum += live.len();
        peak_bytes = peak_bytes.max(alloc.memory_bytes());
    }
    let elapsed_ns = t0.elapsed().as_nanos() as f64;
    let solves = alloc.solves.max(1) as f64;
    AllocReplay {
        ns_per_solve: elapsed_ns / solves,
        resolved_per_solve: alloc.streams_resolved as f64 / solves,
        bytes_per_stream: peak_bytes as f64 / (live_sum as f64 / arrivals as f64).max(1.0),
        mean_live: live_sum as f64 / arrivals as f64,
    }
}

/// `EventQueue` hold model at `depth`: pop the earliest event, push one a
/// pseudo-random increment later. Returns ns per pop+push pair.
pub fn replay_queue(depth: usize, budget: Duration) -> f64 {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut rng = Lcg(0x2545_F491_4F6C_DD1D);
    let mut step = move || rng.unit();
    for i in 0..depth.max(1) {
        q.push(step() * depth as f64, (i % 4) as u8, i as u32);
    }
    let t0 = Instant::now();
    let mut pairs = 0u64;
    while t0.elapsed() < budget {
        for _ in 0..1024 {
            if let Some((t, class, payload)) = q.pop() {
                q.push(t + step() * depth as f64, class, payload);
            }
        }
        pairs += 1024;
    }
    std::hint::black_box(q.len());
    t0.elapsed().as_nanos() as f64 / pairs as f64
}

/// One RL transfer's tuner life as the shard loop drives it: build the
/// per-transfer bandit agent, then one `observe` per probe interval.
/// Returns `(ns per observe, amortising construction; p50 observe in µs)`.
pub fn replay_rl(max_cc: u32, probes_per_transfer: usize, budget: Duration) -> (f64, f64) {
    let t0 = Instant::now();
    let (mut observes, mut seed) = (0u64, 1u64);
    let mut singles: Vec<f64> = Vec::new();
    while t0.elapsed() < budget {
        let mut agent = falcon_rl::bandit_agent(max_cc, seed);
        let mut cc = agent.initial_settings().concurrency.clamp(1, max_cc);
        for p in 0..probes_per_transfer.max(1) {
            let settings = TransferSettings::with_concurrency(cc);
            let thr = 300.0 * f64::from(cc) * (1.0 + 0.01 * (p % 7) as f64);
            let m = ProbeMetrics::from_aggregate(settings, thr, 0.0, PROBE_INTERVAL_S);
            // Time every 16th call on its own for the per-call median.
            let single = (observes % 16 == 0).then(Instant::now);
            cc = agent.observe(m).concurrency.clamp(1, max_cc);
            if let Some(t) = single {
                singles.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
            observes += 1;
        }
        seed += 1;
    }
    singles.sort_by(f64::total_cmp);
    let p50 = singles.get(singles.len() / 2).copied().unwrap_or(0.0);
    (t0.elapsed().as_nanos() as f64 / observes.max(1) as f64, p50)
}

// ---------------------------------------------------------------------
// Loopback engine (real sockets over the host loopback interface)
// ---------------------------------------------------------------------

/// What the `falcon-net` drivers measured.
#[derive(Default)]
pub struct NetFigures {
    pub bulk_gbps_cc1: f64,
    pub bulk_gbps_ccn: f64,
    pub cpu_s_per_gb: f64,
    pub apply_us: Vec<f64>,
    pub sample_us: f64,
    pub first_byte_ms: f64,
    pub shutdown_ms: f64,
    pub throttle_accuracy: f64,
    pub tuner_overhead_pct: f64,
    pub connect_retries: u64,
    pub reconnects: u64,
    pub worker_deaths: u64,
}

/// User + system CPU seconds of this process so far (`/proc/self/stat`
/// fields 14 and 15, in clock ticks of 1/100 s on Linux).
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let tail = stat.rsplit_once(')').map_or("", |(_, t)| t);
    let f: Vec<&str> = tail.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

fn start_transfer(
    per_worker_mbps: f64,
    total_bytes: u64,
    workers: u32,
) -> Result<(Receiver, LoopbackTransfer), String> {
    let receiver = Receiver::start().map_err(|e| format!("receiver: {e}"))?;
    let transfer = LoopbackTransfer::start(LoopbackConfig {
        port: receiver.port(),
        per_worker_mbps,
        total_bytes,
        max_workers: workers,
    });
    Ok((receiver, transfer))
}

fn absorb(fig: &mut NetFigures, t: &LoopbackTransfer) {
    let s = t.recovery_stats();
    fig.connect_retries += s.connect_retries;
    fig.reconnects += s.reconnects;
    fig.worker_deaths += s.worker_deaths;
}

/// Move `bytes` unthrottled at a fixed worker count: `(Gbit/s, CPU s/GB)`.
fn bulk(fig: &mut NetFigures, bytes: u64, workers: u32) -> Result<(f64, f64), String> {
    let (_rx, t) = start_transfer(1e6, bytes, workers)?;
    let (t0, cpu0) = (Instant::now(), process_cpu_s());
    t.apply_settings(TransferSettings::with_concurrency(workers));
    while !t.is_complete() {
        if t0.elapsed() > Duration::from_secs(60) {
            return Err(format!(
                "bulk transfer at cc={workers} did not finish in 60 s"
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let wall = t0.elapsed().as_secs_f64();
    t.shutdown();
    let gb = t.sent_bytes() as f64 / 1e9;
    absorb(fig, &t);
    Ok((gb * 8.0 / wall, (process_cpu_s() - cpu0) / gb))
}

/// Drive the loopback engine directly. `scale` shrinks byte counts and
/// dwell times for the smoke run.
pub fn net_figures(nproc: u32, scale: f64) -> Result<NetFigures, String> {
    let mut fig = NetFigures::default();
    let bulk_bytes = (8e9 * scale) as u64;
    fig.bulk_gbps_cc1 = bulk(&mut fig, bulk_bytes, 1)?.0;
    (fig.bulk_gbps_ccn, fig.cpu_s_per_gb) = bulk(&mut fig, bulk_bytes, nproc)?;

    // Open-ended transfer: first byte, pool resizes, sampling, a live GD
    // loop as the CLI runs it, shutdown.
    let t0 = Instant::now();
    let (_rx, t) = start_transfer(1e6, u64::MAX, nproc)?;
    while t.sent_bytes() == 0 {
        if t0.elapsed() > Duration::from_secs(10) {
            return Err("no byte sent within 10 s".into());
        }
        std::thread::yield_now();
    }
    fig.first_byte_ms = t0.elapsed().as_secs_f64() * 1e3;
    for i in 0..20u32 {
        let cc = if i % 2 == 0 { nproc } else { 1 };
        let a0 = Instant::now();
        t.apply_settings(TransferSettings::with_concurrency(cc));
        fig.apply_us.push(a0.elapsed().as_secs_f64() * 1e6);
    }
    let s0 = Instant::now();
    for _ in 0..1000 {
        std::hint::black_box(t.sample());
    }
    fig.sample_us = s0.elapsed().as_secs_f64() * 1e6 / 1000.0;

    let interval = 0.25 * scale.max(0.2);
    let mut agent = FalconAgent::gradient_descent(nproc);
    t.apply_settings(agent.initial_settings());
    t.sample();
    let probes = 8;
    let mut deciding = 0.0;
    for _ in 0..probes {
        std::thread::sleep(Duration::from_secs_f64(interval));
        let d0 = Instant::now();
        let metrics = t.sample();
        let settings = agent.observe(metrics);
        t.apply_settings(settings);
        deciding += d0.elapsed().as_secs_f64();
    }
    fig.tuner_overhead_pct = 100.0 * deciding / (f64::from(probes) * interval);
    let d0 = Instant::now();
    t.shutdown();
    fig.shutdown_ms = d0.elapsed().as_secs_f64() * 1e3;
    absorb(&mut fig, &t);

    // Token bucket: one worker throttled to 400 Mbps.
    let (_rx, t) = start_transfer(400.0, u64::MAX, 1)?;
    std::thread::sleep(Duration::from_secs_f64(0.2));
    t.sample();
    std::thread::sleep(Duration::from_secs_f64(1.5 * scale.max(0.2)));
    fig.throttle_accuracy = t.sample().aggregate_mbps / 400.0;
    t.shutdown();
    absorb(&mut fig, &t);
    Ok(fig)
}
