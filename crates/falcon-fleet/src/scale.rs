//! The fleet-scale campaign engine: 10⁵–10⁶ transfers over generated
//! fabrics ([`ScaleTopology`]), with sharded state and an incremental
//! max-min allocator.
//!
//! Where [`crate::run_campaign`] drives a few hundred boxed tuners
//! through the shared runner, this engine is built for throughput:
//! transfer state is structure-of-arrays over the stable `u32` stream
//! ids of [`falcon_sim::alloc::IncrementalMaxMin`] (free-list reuse on
//! departure, no per-transfer allocation after warm-up), and the event
//! loop is a pure fluid-model DES — arrivals, completions, capacity
//! changes and tuner probes are the only events, and each one re-solves
//! *only* the dirty component of the bandwidth-sharing graph, except an
//! arrival, departure or tuner re-rate on an unsaturated route, which
//! the allocator applies in place with no solve at all. It keeps no
//! general event heap: capacity events are sorted before a shard starts,
//! arrivals stream in from one shared generator in time order and probes
//! are queued in time order, so `ShardEvents` merges those three with the
//! departure heap by `(time, class)`.
//!
//! Sharding: routes in disjoint link components never contend, so the
//! max-min fixed point decomposes per component. The engine groups
//! components into `spec.shards` shards (a property of the spec, never
//! of the machine), runs each shard's DES independently via
//! [`falcon_par::fan_out_resumable`], and folds the shard outcomes in
//! shard order — an N-thread run is byte-identical to a 1-thread run,
//! which `tests/fleet_scale.rs` checks at 1 vs 4 vs 8 threads on a
//! 10⁵-transfer fat-tree campaign.
//!
//! Arrivals: one generator feeds every shard, and it runs at most one
//! block ahead of them. It generates `ARRIVAL_BLOCK` arrivals at a time,
//! and only while fewer than that are queued across the shards. A shard
//! that needs its next arrival while the queue holds only the others'
//! yields, and a worker resumes it once the feeder can feed it again.
//! Queued arrivals so stay under two blocks, whatever the campaign's
//! length (the `buffered_arrivals_stay_under_two_blocks` test below): a
//! campaign's memory follows its live transfers.

use falcon_core::{FalconAgent, ProbeMetrics, TransferSettings};
use falcon_rl::RlKind;
use falcon_sim::alloc::IncrementalMaxMin;
use falcon_sim::KeyedEventQueue;
use falcon_trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

use crate::topology::ScaleTopology;
use crate::tuner::FleetTuner;

/// Probe cadence for [`ScaleTuner::Rl`] transfers — matches the
/// testbed's 5 s sample interval ([`falcon_sim::Environment`]'s
/// `sample_interval_s`), so a scale-engine tuner sees the same decision
/// rhythm as a classic-engine agent.
pub const PROBE_INTERVAL_S: f64 = 5.0;

/// Per-transfer tuning policy for the scale engine.
///
/// `Fixed` is the classic path: every transfer runs
/// [`ScaleWorkload::concurrency`] connections for its whole life, and the
/// engine schedules no probe events and allocates no tuner state, so a
/// fixed campaign pays nothing for the tuner path.
///
/// The `Rl` kinds give every transfer its *own* learning tuner from
/// `falcon-rl`, seeded by `falcon_par::task_seed(spec.seed, global
/// arrival index)` — a function of the spec alone, so shard assignment
/// and thread count cannot change any decision. The tuner observes
/// delivered throughput every [`PROBE_INTERVAL_S`] seconds (the fluid
/// model is lossless, so the Eq 4 loss term is zero) and re-rates the
/// stream through `IncrementalMaxMin::update_stream`. In `Rl` mode
/// [`ScaleWorkload::concurrency`] becomes the lattice *ceiling* instead
/// of the pinned value.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ScaleTuner {
    /// Pinned concurrency, no probes.
    #[default]
    Fixed,
    /// A per-transfer `falcon-rl` tuner.
    Rl(RlKind),
}

/// Workload shape for a scale campaign. All randomness is drawn from one
/// seeded `StdRng` in a fixed order: a `(topology, workload, seed)`
/// triple always generates the identical arrival sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleWorkload {
    /// Total arrivals to generate (at most `u32::MAX`).
    pub transfers: usize,
    /// Base mean arrival rate (per minute) before diurnal modulation.
    pub arrivals_per_min: f64,
    /// Mean transfer size (MB); sizes spread uniformly over
    /// `[0.25, 1.75] × mean`.
    pub mean_file_mb: f64,
    /// Connection count per transfer; sets both the max-min weight and
    /// the rate cap (`concurrency × per_conn_cap_mbps`). Under
    /// [`ScaleTuner::Rl`] this is the tuner's search ceiling instead of
    /// a pinned value.
    pub concurrency: u32,
    /// Per-transfer tuning policy (defaults to [`ScaleTuner::Fixed`]).
    pub tuner: ScaleTuner,
    /// Per-connection rate cap (Mbps) — the TCP response-function stand-in.
    pub per_conn_cap_mbps: f64,
    /// Diurnal amplitude in `[0, 1)`: the arrival rate follows
    /// `base × (1 + diurnal · sin(2πt / period))` by thinning.
    pub diurnal: f64,
    /// Diurnal period (seconds).
    pub diurnal_period_s: f64,
    /// Tenant-churn groups: arrivals belong to one of `tenants` tenants,
    /// and each rotation window one tenant churns out (its arrivals are
    /// suppressed). `1` disables churn.
    pub tenants: u32,
    /// Tenant rotation window (seconds).
    pub tenant_rotation_s: f64,
}

impl ScaleWorkload {
    /// Run every transfer under registry entry `tuner`: `fixed:<cc>` pins
    /// [`ScaleWorkload::concurrency`], `rl:*` gives each transfer its own
    /// learning tuner below that ceiling. The engine runs no other entry.
    pub fn with_tuner(mut self, tuner: FleetTuner) -> Result<Self, String> {
        match tuner {
            FleetTuner::Fixed(cc) => self.concurrency = cc,
            FleetTuner::Rl(kind) => self.tuner = ScaleTuner::Rl(kind),
            other => {
                return Err(format!(
                    "the scale engine runs fixed:<cc> and rl:* only, not {}",
                    other.name()
                ))
            }
        }
        Ok(self)
    }
}

impl Default for ScaleWorkload {
    fn default() -> Self {
        ScaleWorkload {
            transfers: 10_000,
            arrivals_per_min: 6_000.0,
            mean_file_mb: 100.0,
            concurrency: 4,
            tuner: ScaleTuner::Fixed,
            per_conn_cap_mbps: 300.0,
            diurnal: 0.0,
            diurnal_period_s: 86_400.0,
            tenants: 1,
            tenant_rotation_s: 300.0,
        }
    }
}

/// One scheduled link-failure wave: every link in `links` drops to
/// `factor × baseline` at `at_s` and recovers at `at_s + duration_s`.
/// Listing several links makes the failure *correlated* (a conduit cut,
/// a power event) rather than independent flaps. Where failures overlap
/// on a link, it runs at the smallest factor among those still active.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFailure {
    /// Failure onset (seconds).
    pub at_s: f64,
    /// Outage length (seconds).
    pub duration_s: f64,
    /// Capacity multiplier during the outage (0 < factor ≤ 1 keeps the
    /// fluid model live; 0 strands transfers until recovery).
    pub factor: f64,
    /// Global link indices hit together.
    pub links: Vec<u32>,
}

/// Deterministic correlated failure waves for soak scenarios: wave `w`
/// fires at `(w+1)·duration/(n+1)`, hits up to 4 links of one route
/// component (rotating over components), drops them to 35% for
/// `duration/20` seconds.
#[must_use]
pub fn correlated_failure_waves(
    topology: &ScaleTopology,
    waves: usize,
    duration_s: f64,
) -> Vec<LinkFailure> {
    let comps = topology.route_components();
    let n_comp = comps.iter().copied().max().map(|m| m + 1).unwrap_or(0);
    if n_comp == 0 {
        return Vec::new();
    }
    (0..waves)
        .map(|w| {
            let target = (w as u32) % n_comp;
            let mut links: Vec<u32> = Vec::new();
            'routes: for (ri, route) in topology.routes.iter().enumerate() {
                if comps[ri] != target {
                    continue;
                }
                for &l in &route.links {
                    if !links.contains(&l) {
                        links.push(l);
                    }
                    if links.len() >= 4 {
                        break 'routes;
                    }
                }
            }
            LinkFailure {
                at_s: duration_s * (w as f64 + 1.0) / (waves as f64 + 1.0),
                duration_s: duration_s / 20.0,
                factor: 0.35,
                links,
            }
        })
        .collect()
}

/// Everything a scale campaign needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleCampaignSpec {
    /// The fabric and its routes.
    pub topology: ScaleTopology,
    /// Arrival/size/churn parameters.
    pub workload: ScaleWorkload,
    /// Scheduled correlated link failures.
    pub failures: Vec<LinkFailure>,
    /// Arrival horizon (seconds): generation stops at `transfers`
    /// arrivals or this horizon, whichever first; the DES then drains.
    pub duration_s: f64,
    /// Master seed.
    pub seed: u64,
    /// Shard count — part of the *spec*, never derived from the thread
    /// count, so results are machine-independent. Clamped to the number
    /// of route components.
    pub shards: u32,
}

impl ScaleCampaignSpec {
    /// A pod-local fat-tree campaign (the differential-test shape):
    /// routes stay within their pod, so every pod is an independent
    /// component and the spec shards one-per-pod.
    #[must_use]
    pub fn fat_tree_local(k: usize, transfers: usize, seed: u64) -> Self {
        ScaleCampaignSpec {
            topology: ScaleTopology::fat_tree(k, 10.0).pod_local(),
            workload: ScaleWorkload {
                transfers,
                arrivals_per_min: 60_000.0,
                mean_file_mb: 50.0,
                concurrency: 2,
                per_conn_cap_mbps: 750.0,
                ..ScaleWorkload::default()
            },
            failures: Vec::new(),
            duration_s: 600.0,
            seed,
            shards: k as u32,
        }
    }
}

/// One generated arrival, 24 bytes: the record the feeder queues.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Arrival {
    t_s: f64,
    size_mbits: f64,
    /// The global route as generated; the owner shard's local route once
    /// queued.
    route: u32,
    /// Global arrival index. It seeds the transfer's tuner, so the seed
    /// stream is shard-invariant.
    index: u32,
}

/// The arrival stream: inhomogeneous Poisson by thinning (diurnal curve),
/// tenant-churn suppression, uniform route choice, uniform size spread.
/// Time-sorted by construction; it ends at `transfers` arrivals (at most
/// `u32::MAX`) or the horizon, whichever comes first.
fn generate_arrivals(spec: &ScaleCampaignSpec) -> impl Iterator<Item = Arrival> + '_ {
    let w = &spec.workload;
    debug_assert!(w.arrivals_per_min > 0.0 && w.mean_file_mb > 0.0);
    debug_assert!((0.0..1.0).contains(&w.diurnal));
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let base_per_s = w.arrivals_per_min / 60.0;
    let max_per_s = base_per_s * (1.0 + w.diurnal);
    let tenants = w.tenants.max(1);
    let mut t = 0.0f64;
    let admitted = std::iter::from_fn(move || loop {
        let u: f64 = rng.gen::<f64>().max(1e-12);
        // falcon-lint::allow(float-time-accum, reason = "Poisson arrival times are cumulative sums of exponentials by definition; no closed-form grid exists")
        t += -u.ln() / max_per_s;
        if t > spec.duration_s {
            return None; // and again on every later call: `t` only grows
        }
        // Thinning against the diurnal curve. Every draw below happens
        // unconditionally so the rng stream is independent of the curve
        // and of tenant phase — rejection can never shift later draws.
        let accept: f64 = rng.gen();
        let route = rng.gen_range(0..spec.topology.routes.len()) as u32;
        let spread: f64 = rng.gen();
        let tenant = rng.gen_range(0..tenants);
        let rate =
            base_per_s * (1.0 + w.diurnal * (std::f64::consts::TAU * t / w.diurnal_period_s).sin());
        if accept * max_per_s > rate {
            continue;
        }
        // Tenant churn: one tenant per rotation window is churned out.
        if tenants > 1 {
            let window = (t / w.tenant_rotation_s.max(1e-9)) as u64;
            if window % u64::from(tenants) == u64::from(tenant) {
                continue;
            }
        }
        return Some((t, route, w.mean_file_mb * (0.25 + 1.5 * spread) * 8.0));
    });
    let indices = 0..w.transfers.min(u32::MAX as usize) as u32;
    indices
        .zip(admitted)
        .map(|(index, (t_s, route, size_mbits))| Arrival {
            t_s,
            size_mbits,
            route,
            index,
        })
}

/// Arrivals per refill of the feeder, and its bound: it generates no
/// more while this many are queued across the shards.
const ARRIVAL_BLOCK: usize = 4096;

/// The one arrival stream, shared by the shards and drawn on demand. It
/// runs at most one block ahead of the shards that consume it: it queues
/// fewer than `2 · block` arrivals, and a shard whose own queue is empty
/// waits while `block` or more are queued for the others.
struct Feeder<I: Iterator<Item = Arrival>> {
    arrivals: I,
    /// Arrivals generated so far.
    generated: u32,
    /// Whether `arrivals` has ended.
    ended: bool,
    /// `(shard, local route)` per global route.
    home: Vec<(u32, u32)>,
    /// Per shard, the arrivals generated for it and not yet handed over.
    queues: Vec<VecDeque<Arrival>>,
    /// Arrivals in `queues`, and the most there have been.
    queued: usize,
    peak_queued: usize,
    block: usize,
}

/// What a shard's refill got from the feeder.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Feed {
    /// The shard's next arrivals, in time order.
    Handed,
    /// None yet: the feeder is a block ahead, holding the other shards'.
    Wait,
    /// None, ever again.
    Ended,
}

impl<I: Iterator<Item = Arrival>> Feeder<I> {
    /// Whether [`Feeder::refill`] would answer `shard` with anything but
    /// [`Feed::Wait`].
    fn can_feed(&self, shard: usize) -> bool {
        !self.queues[shard].is_empty() || self.ended || self.queued < self.block
    }

    /// Hand `shard` its queued arrivals in exchange for its drained
    /// `mine`, first generating blocks of the stream, in global order,
    /// while it has none and fewer than one block is queued.
    fn refill(&mut self, shard: usize, mine: &mut VecDeque<Arrival>) -> Feed {
        while self.queues[shard].is_empty() && !self.ended && self.queued < self.block {
            let before = self.generated;
            for mut a in self.arrivals.by_ref().take(self.block) {
                let (owner, local) = self.home[a.route as usize];
                a.route = local;
                self.queues[owner as usize].push_back(a);
                self.generated += 1;
            }
            let fresh = (self.generated - before) as usize;
            self.ended = fresh < self.block;
            self.queued += fresh;
            self.peak_queued = self.peak_queued.max(self.queued);
        }
        if self.queues[shard].is_empty() {
            return if self.ended { Feed::Ended } else { Feed::Wait };
        }
        std::mem::swap(&mut self.queues[shard], mine);
        self.queued -= mine.len();
        Feed::Handed
    }
}

/// Self-contained input for one shard's DES (owned, `Send`).
#[derive(Default)]
struct ShardInput {
    /// Baseline capacity per local link.
    caps: Vec<f64>,
    /// Global index per local link (for the merged per-link report).
    global_link: Vec<u32>,
    /// Local routes: local link indices + *per-connection* max-min
    /// weight (multiplied by the transfer's live connection count at the
    /// allocator seam).
    route_links: Vec<Vec<u32>>,
    route_weight: Vec<f64>,
    /// Capacity events `(t, local link, new capacity)`, stably time-sorted.
    cap_events: Vec<(f64, u32, f64)>,
    /// Per-connection rate cap (the stream cap is `cc × per_conn_cap`).
    per_conn_cap: f64,
    /// Fixed connection count, or the tuner's search ceiling.
    concurrency: u32,
    /// Per-transfer tuning policy.
    tuner: ScaleTuner,
    /// Master seed (tuner seeds derive from it per global arrival).
    seed: u64,
}

/// What one shard's DES produced.
#[derive(Debug, Clone, PartialEq, Default)]
struct ShardOutcome {
    completions: u64,
    stranded: u64,
    bytes_mbits: f64,
    duration_sum_s: f64,
    peak_active: u32,
    makespan_s: f64,
    solves: u64,
    streams_resolved: u64,
    in_place: u64,
    probes: u64,
    arena_bytes: usize,
    peak_queue: u64,
    /// `(global link, ∫load dt in Mbit)` per local link.
    link_busy: Vec<(u32, f64)>,
}

/// Merged campaign outcome.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScaleReport {
    /// Topology label.
    pub topology: String,
    /// Shards the spec prescribed (after clamping to components).
    pub shards: u32,
    /// Master seed.
    pub seed: u64,
    /// Arrivals admitted.
    pub transfers: u64,
    /// Transfers that completed.
    pub completions: u64,
    /// Transfers still live when their shard's event queue drained
    /// (rate pinned at 0 by an unrecovered failure).
    pub stranded: u64,
    /// Bytes moved by completed transfers (GB).
    pub bytes_gb: f64,
    /// Mean completed-transfer duration (seconds).
    pub mean_duration_s: f64,
    /// Time of the last event that acted — a capacity change, arrival,
    /// completion or tuner decision — across shards (seconds).
    pub makespan_s: f64,
    /// Sum of per-shard peak concurrent transfers (an upper bound on the
    /// global peak; shards peak at different instants).
    pub peak_active: u32,
    /// Incremental-allocator full solves across shards (joins, leaves and
    /// re-rates applied in place are not solves).
    pub solves: u64,
    /// Streams re-solved across all full solves (a dense allocator would
    /// pay `active × solves`).
    pub streams_resolved: u64,
    /// Tuner re-rates the allocator applied in place, with no solve;
    /// reported as the `fleet.scale.in_place` trace counter, not in
    /// [`summary`](ScaleReport::summary).
    pub in_place: u64,
    /// Tuner probe decisions taken across shards (0 under
    /// [`ScaleTuner::Fixed`]).
    pub probes: u64,
    /// Peak engine-state bytes (allocator arena + transfer SoA + the live
    /// tuners' heap, [`FalconAgent::memory_bytes`]) summed over shards.
    pub arena_bytes: usize,
    /// Sum of per-shard peak pending-event counts. Bounded by capacity
    /// events + one arrival per shard + two entries (a departure, a probe)
    /// per concurrent transfer; reported as the `fleet.scale.peak_queue`
    /// trace counter, not in [`summary`](ScaleReport::summary).
    pub peak_queue: u64,
    /// Per-link `(name, mean utilization vs baseline over the makespan)`,
    /// sorted by utilization descending then name.
    pub links: Vec<(String, f64)>,
}

impl ScaleReport {
    /// Mean streams re-solved per solve call.
    #[must_use]
    pub fn mean_resolved_per_solve(&self) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            self.streams_resolved as f64 / self.solves as f64
        }
    }

    /// Peak engine-state bytes per peak concurrent transfer.
    #[must_use]
    pub fn bytes_per_transfer(&self) -> f64 {
        if self.peak_active == 0 {
            0.0
        } else {
            self.arena_bytes as f64 / f64::from(self.peak_active)
        }
    }

    /// Canonical fixed-precision text — the golden-summary gate and the
    /// 1-vs-N-thread differential tests compare these bytes.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "scale campaign {} seed={} shards={}",
            self.topology, self.seed, self.shards
        );
        let _ = writeln!(
            s,
            "  transfers {}  completed {}  stranded {}",
            self.transfers, self.completions, self.stranded
        );
        let _ = writeln!(
            s,
            "  bytes {:.3} GB  mean transfer {:.4} s  makespan {:.3} s  peak active {}",
            self.bytes_gb, self.mean_duration_s, self.makespan_s, self.peak_active
        );
        let _ = writeln!(
            s,
            "  allocator: {} solves, {} streams re-solved ({:.2} avg/solve), {:.0} state bytes/transfer",
            self.solves,
            self.streams_resolved,
            self.mean_resolved_per_solve(),
            self.bytes_per_transfer()
        );
        let _ = writeln!(s, "  top links by utilization:");
        for (name, u) in self.links.iter().take(5) {
            let _ = writeln!(s, "    {name} {u:.4}");
        }
        s
    }
}

/// Run a scale campaign across `threads` workers. Shard decomposition
/// and every number in the report depend only on the spec — `threads`
/// changes wall-clock time and nothing else.
#[must_use]
pub fn run_scale_campaign(spec: &ScaleCampaignSpec, threads: usize) -> ScaleReport {
    run_scale_campaign_traced(spec, threads, &Tracer::disabled())
}

/// [`run_scale_campaign`], also adding `fleet.scale.*` counters to
/// `tracer` after the deterministic merge.
#[must_use]
pub fn run_scale_campaign_traced(
    spec: &ScaleCampaignSpec,
    threads: usize,
    tracer: &Tracer,
) -> ScaleReport {
    run(spec, threads, tracer, ARRIVAL_BLOCK).0
}

/// [`run_scale_campaign_traced`], the feeder generating `block` arrivals
/// at a time; also the most arrivals the feeder held queued. That peak
/// depends on which shard ran when, so it stays out of the report.
fn run(
    spec: &ScaleCampaignSpec,
    threads: usize,
    tracer: &Tracer,
    block: usize,
) -> (ScaleReport, usize) {
    let comps = spec.topology.route_components();
    let n_comp = comps.iter().copied().max().map(|m| m + 1).unwrap_or(0);
    let shards = spec.shards.clamp(1, n_comp.max(1));

    // Partition links and routes into shards by route component; a link
    // is only materialized in the shard that routes over it.
    let n_links = spec.topology.links.len();
    let mut shard_inputs: Vec<ShardInput> = (0..shards)
        .map(|_| ShardInput {
            per_conn_cap: spec.workload.per_conn_cap_mbps,
            concurrency: spec.workload.concurrency.max(1),
            tuner: spec.workload.tuner,
            seed: spec.seed,
            ..ShardInput::default()
        })
        .collect();
    let mut local_link = vec![u32::MAX; n_links];
    let mut link_shard = vec![u32::MAX; n_links];
    let mut home = Vec::with_capacity(spec.topology.routes.len());
    for (ri, route) in spec.topology.routes.iter().enumerate() {
        let sh = comps[ri] % shards;
        let input = &mut shard_inputs[sh as usize];
        let links: Vec<u32> = route
            .links
            .iter()
            .map(|&g| {
                if local_link[g as usize] == u32::MAX {
                    local_link[g as usize] = input.caps.len() as u32;
                    link_shard[g as usize] = sh;
                    input
                        .caps
                        .push(spec.topology.links[g as usize].capacity_mbps);
                    input.global_link.push(g);
                }
                local_link[g as usize]
            })
            .collect();
        home.push((sh, input.route_links.len() as u32));
        input.route_links.push(links);
        // TCP's RTT bias: weight ∝ connections / RTT, normalized to a
        // 20 ms reference so classic fleet weights carry over, clamped
        // so sub-ms datacenter routes don't drown WAN routes entirely.
        // Stored per connection; the shard multiplies by the transfer's
        // live connection count, so a tuner's re-rate changes only that
        // factor.
        input
            .route_weight
            .push((0.020 / route.rtt_s.max(1e-4)).min(50.0));
    }
    // Outage edges per shard: `(time, local link, factor, onset)`.
    let mut edges: Vec<Vec<(f64, u32, f64, bool)>> = vec![Vec::new(); shards as usize];
    for f in &spec.failures {
        for &g in &f.links {
            let sh = link_shard[g as usize];
            if sh == u32::MAX {
                continue; // link carries no route; failure is moot
            }
            let l = local_link[g as usize];
            edges[sh as usize].push((f.at_s, l, f.factor, true));
            // An infinite duration means the failure never recovers.
            let recover_at = f.at_s + f.duration_s;
            if recover_at.is_finite() {
                edges[sh as usize].push((recover_at, l, f.factor, false));
            }
        }
    }
    // One capacity event per edge, stably time-sorted. A link runs at its
    // baseline × the deepest outage still active: where outages overlap,
    // the first recovery does not lift it while another holds it down.
    for (input, mut edges) in shard_inputs.iter_mut().zip(edges) {
        edges.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut active: Vec<Vec<f64>> = vec![Vec::new(); input.caps.len()];
        for (t, l, factor, onset) in edges {
            let on = &mut active[l as usize];
            if onset {
                on.push(factor);
            } else if let Some(ended) = on.iter().position(|&f| f == factor) {
                on.swap_remove(ended);
            }
            let deepest = on.iter().copied().reduce(f64::min).unwrap_or(1.0);
            let cap = input.caps[l as usize] * deepest;
            input.cap_events.push((t, l, cap));
        }
    }

    let feeder = Feeder {
        arrivals: generate_arrivals(spec),
        generated: 0,
        ended: false,
        home,
        queues: vec![VecDeque::new(); shards as usize],
        queued: 0,
        peak_queued: 0,
        block,
    };
    // A shard yields when the feeder is a block ahead and none of it is
    // the shard's; any worker resumes it once the feeder can feed it
    // again. The lock that guards the feeder also guards the parked
    // shards, so a worker never sleeps through the refill that readies one.
    let (feeder, outcomes) = falcon_par::fan_out_resumable(
        feeder,
        shard_inputs
            .iter()
            .map(|input| Box::new(ShardRun::new(input)))
            .collect(),
        threads,
        |feeder, shard| feeder.can_feed(shard),
        |shard, run, feeder| run.resume(&mut |mine| feeder.with(|f| f.refill(shard, mine))),
    );
    // Folded in shard order, whichever shard finished first.
    let mut report = ScaleReport {
        topology: spec.topology.name.clone(),
        shards,
        seed: spec.seed,
        ..ScaleReport::default()
    };
    let mut duration_sum = 0.0f64;
    let mut busy: Vec<(u32, f64)> = Vec::new();
    for out in outcomes {
        report.completions += out.completions;
        report.stranded += out.stranded;
        report.bytes_gb += out.bytes_mbits / 8_000.0;
        duration_sum += out.duration_sum_s;
        report.makespan_s = report.makespan_s.max(out.makespan_s);
        report.peak_active += out.peak_active;
        report.solves += out.solves;
        report.streams_resolved += out.streams_resolved;
        report.in_place += out.in_place;
        report.probes += out.probes;
        report.arena_bytes += out.arena_bytes;
        report.peak_queue += out.peak_queue;
        busy.extend(out.link_busy);
    }
    // Every shard drained its arrivals, so the stream has ended.
    report.transfers = u64::from(feeder.generated);
    report.mean_duration_s = if report.completions > 0 {
        duration_sum / report.completions as f64
    } else {
        0.0
    };
    busy.sort_by_key(|&(g, _)| g);
    report.links = busy
        .into_iter()
        .map(|(g, mbits)| {
            let link = &spec.topology.links[g as usize];
            let denom = link.capacity_mbps * report.makespan_s.max(1e-9);
            (link.name.clone(), mbits / denom)
        })
        .collect();
    report
        .links
        .sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    tracer.add("fleet.scale.transfers", report.transfers);
    tracer.add("fleet.scale.completions", report.completions);
    tracer.add("fleet.scale.stranded", report.stranded);
    tracer.add("fleet.scale.solves", report.solves);
    tracer.add("fleet.scale.streams_resolved", report.streams_resolved);
    tracer.add("fleet.scale.in_place", report.in_place);
    tracer.add("fleet.scale.probes", report.probes);
    tracer.add("fleet.scale.peak_queue", report.peak_queue);
    (report, feeder.peak_queued)
}

/// Event classes: at equal times, capacity changes fire before arrivals,
/// arrivals before departures, departures before probes (a probe landing
/// on a departed transfer sees it dead and is dropped). Each class has its
/// own source in [`ShardEvents`], so the class also orders their heads.
const EV_CAP: u8 = 0;
const EV_ARRIVE: u8 = 1;
const EV_DEPART: u8 = 2;
const EV_PROBE: u8 = 3;

/// A fired event: a capacity change `(local link, capacity)`, an arrival,
/// a departure `(stream id)` or a probe `(stream id, generation)`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Cap(u32, f64),
    Arrive(Arrival),
    Depart(u32),
    Probe(u32, u32),
}

/// `head` of `class` if it is strictly earlier than `next` under
/// `total_cmp` (or there is no `next`), else `next`.
fn earlier(next: Option<(f64, u8)>, head: Option<f64>, class: u8) -> Option<(f64, u8)> {
    match (next, head) {
        (Some((t, _)), Some(h)) if h.total_cmp(&t).is_lt() => Some((h, class)),
        (None, Some(h)) => Some((h, class)),
        _ => next,
    }
}

/// Hands a shard's drained arrival buffer its next arrivals, in time
/// order, or says why it cannot.
type Refill<'a> = &'a mut dyn FnMut(&mut VecDeque<Arrival>) -> Feed;

/// A shard's pending events: an ordered merge of four sources that are
/// each in `(time, insertion)` order already. One class per source, so
/// firing the head with the smallest `(time, class)` drains in the
/// `(time, class, insertion)` order one heap holding all four would
/// (`merge_order` tests exactly that), without sifting every probe
/// through a heap.
#[derive(Default)]
struct ShardEvents<'a> {
    /// The shard's capacity events, and how many have fired.
    cap_events: &'a [(f64, u32, f64)],
    caps_fired: usize,
    /// Arrivals handed over, refilled before the next event once they
    /// drain: the front one is the shard's next arrival, in hand.
    arrivals: VecDeque<Arrival>,
    /// The feeder has no more arrivals for this shard.
    arrivals_ended: bool,
    departures: KeyedEventQueue,
    /// `(time, stream id, probe generation)` in push order. A probe its
    /// transfer did not wait for stays queued, its generation now stale.
    probes: VecDeque<(f64, u32, u32)>,
    /// Queued probes whose transfer has departed: dead entries, which
    /// `len` does not count.
    stale_probes: usize,
}

impl ShardEvents<'_> {
    /// Take the next arrival in hand if there is none and the shard has
    /// any left; false when the feeder says to wait. The shard loop runs
    /// this before it counts and pops each event, so `len` never counts
    /// one short.
    fn take_arrivals(&mut self, refill: Refill<'_>) -> bool {
        if self.arrivals.is_empty() && !self.arrivals_ended {
            match refill(&mut self.arrivals) {
                Feed::Handed => {}
                Feed::Wait => return false,
                Feed::Ended => self.arrivals_ended = true,
            }
        }
        true
    }

    /// Events yet to fire that will act, over all four sources. Of the
    /// arrivals only the one in hand counts: how many are buffered behind
    /// it depends on which thread generated them when.
    fn len(&self) -> usize {
        (self.cap_events.len() - self.caps_fired)
            + usize::from(!self.arrivals.is_empty())
            + self.departures.len()
            + (self.probes.len() - self.stale_probes)
    }

    /// Remove the next event and its time.
    fn pop(&mut self) -> Option<(f64, Event)> {
        // Heads in class order, each taking over only when strictly
        // earlier: the lowest class among equal times.
        let mut next = self.cap_events.get(self.caps_fired).map(|e| (e.0, EV_CAP));
        next = earlier(next, self.arrivals.front().map(|a| a.t_s), EV_ARRIVE);
        next = earlier(next, self.departures.peek().map(|(t, _)| t), EV_DEPART);
        next = earlier(next, self.probes.front().map(|p| p.0), EV_PROBE);
        let (t, class) = next?;
        let event = match class {
            EV_CAP => {
                let &(_, link, cap) = self.cap_events.get(self.caps_fired)?;
                self.caps_fired += 1;
                Event::Cap(link, cap)
            }
            EV_ARRIVE => Event::Arrive(self.arrivals.pop_front()?),
            EV_DEPART => Event::Depart(self.departures.pop()?.2),
            _ => {
                debug_assert_eq!(class, EV_PROBE);
                let (_, id, gen) = self.probes.pop_front()?;
                Event::Probe(id, gen)
            }
        };
        Some((t, event))
    }

    /// Start transfer `id`'s next probe interval at `t`: note what it has
    /// left to send and queue the probe under a fresh generation.
    ///
    /// The FIFO is in `(time, insertion)` order only because every probe
    /// is due one constant [`PROBE_INTERVAL_S`] after a clock that never
    /// goes back. A tuner with its own cadence needs a FIFO per cadence,
    /// or a heap again.
    fn arm_probe(&mut self, soa: &mut TransferSoa, id: u32, t: f64) {
        let i = id as usize;
        soa.probe_armed[i] = true;
        soa.probe_rem[i] = soa.remaining[i];
        soa.probe_t[i] = t;
        soa.probe_gen[i] = soa.probe_gen[i].wrapping_add(1);
        let due = t + PROBE_INTERVAL_S;
        debug_assert!(
            self.probes.back().is_none_or(|p| p.0 <= due),
            "probe FIFO out of time order"
        );
        self.probes.push_back((due, id, soa.probe_gen[i]));
    }
}

/// Per-transfer state, structure-of-arrays indexed by the allocator's
/// stream id. The free-list keeps these arrays sized at the peak-active
/// watermark rather than total arrivals.
///
/// The `probe_*`/`cc`/`agent` columns are the tuner state. They live in
/// the same arena (indexed by the same stream ids, grown by the same
/// `ensure`), but are only materialized under [`ScaleTuner::Rl`] — a
/// fixed-mode run allocates none of them, so its `arena_bytes` counts
/// the fluid columns alone.
#[derive(Default)]
struct TransferSoa {
    remaining: Vec<f64>,
    last_t: Vec<f64>,
    started: Vec<f64>,
    size_mbits: Vec<f64>,
    rate: Vec<f64>,
    route: Vec<u32>,
    live: Vec<bool>,
    /// Remaining mbits at the last probe (delivered = delta since).
    probe_rem: Vec<f64>,
    /// Time of the last probe.
    probe_t: Vec<f64>,
    /// Probe generation (guards id reuse; see [`ShardEvents::probes`]).
    probe_gen: Vec<u32>,
    /// Current connection count chosen by the tuner.
    cc: Vec<u32>,
    /// Whether a probe event is queued. Disarmed when an outage pins the
    /// rate at zero; the post-solve loop re-arms on recovery.
    probe_armed: Vec<bool>,
    /// The per-transfer tuner itself.
    agent: Vec<Option<FalconAgent>>,
}

impl TransferSoa {
    fn ensure(&mut self, id: usize, rl: bool) {
        if id == self.remaining.len() {
            self.remaining.push(0.0);
            self.last_t.push(0.0);
            self.started.push(0.0);
            self.size_mbits.push(0.0);
            self.rate.push(0.0);
            self.route.push(0);
            self.live.push(false);
            if rl {
                self.probe_rem.push(0.0);
                self.probe_t.push(0.0);
                self.probe_gen.push(0);
                self.cc.push(0);
                self.probe_armed.push(false);
                self.agent.push(None);
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        self.remaining.capacity() * std::mem::size_of::<f64>() * 5
            + self.route.capacity() * std::mem::size_of::<u32>()
            + self.live.capacity()
            + self.probe_rem.capacity() * std::mem::size_of::<f64>() * 2
            + self.probe_gen.capacity() * std::mem::size_of::<u32>() * 2
            + self.probe_armed.capacity()
            + self.agent.capacity() * std::mem::size_of::<Option<FalconAgent>>()
    }
}

/// One shard's fluid DES between resumptions: lazy per-transfer
/// integration (`remaining` only updates when the transfer's own rate
/// changes), one departure prediction per transfer with a non-zero rate
/// (moved when the rate changes, withdrawn when it drops to zero —
/// `departures` never holds a superseded entry), and lazy per-link busy
/// integrals. Pending events are therefore bounded by the capacity events
/// yet to fire, the next arrival and two per live transfer, whatever the
/// churn before.
struct ShardRun<'a> {
    input: &'a ShardInput,
    alloc: IncrementalMaxMin,
    events: ShardEvents<'a>,
    soa: TransferSoa,
    /// Per local link: the live load, when its busy integral was last
    /// folded, and that integral.
    load: Vec<f64>,
    link_last_t: Vec<f64>,
    busy: Vec<f64>,
    out: ShardOutcome,
    active: u32,
    /// Streams an event may have re-rated; empty between events.
    affected: Vec<u32>,
}

impl<'a> ShardRun<'a> {
    fn new(input: &'a ShardInput) -> Self {
        ShardRun {
            input,
            alloc: IncrementalMaxMin::with_links(&input.caps),
            events: ShardEvents {
                cap_events: &input.cap_events,
                ..ShardEvents::default()
            },
            soa: TransferSoa::default(),
            load: vec![0.0; input.caps.len()],
            link_last_t: vec![0.0; input.caps.len()],
            busy: vec![0.0; input.caps.len()],
            out: ShardOutcome::default(),
            active: 0,
            affected: Vec::new(),
        }
    }

    /// Run the DES until its events drain, `Ok`, or until it needs an
    /// arrival that `refill` cannot hand it yet, `Err` with the run to
    /// resume. The state moves into locals for the loop and back on a
    /// yield, so the loop works on locals, not through `&mut self`.
    fn resume(self: Box<Self>, refill: Refill<'_>) -> Result<ShardOutcome, Box<Self>> {
        let ShardRun {
            input,
            mut alloc,
            mut events,
            mut soa,
            mut load,
            mut link_last_t,
            mut busy,
            mut out,
            mut active,
            mut affected,
        } = *self;
        let rl = input.tuner != ScaleTuner::Fixed;

        loop {
            if !events.take_arrivals(refill) {
                return Err(Box::new(ShardRun {
                    input,
                    alloc,
                    events,
                    soa,
                    load,
                    link_last_t,
                    busy,
                    out,
                    active,
                    affected,
                }));
            }
            out.peak_queue = out.peak_queue.max(events.len() as u64);
            let Some((t, event)) = events.pop() else {
                break;
            };
            match event {
                Event::Cap(link, cap) => alloc.set_capacity(link, cap),
                Event::Arrive(arrival) => {
                    let r = arrival.route as usize;
                    let mut cc = input.concurrency;
                    let mut agent = None;
                    if let ScaleTuner::Rl(kind) = input.tuner {
                        let a = kind.agent(
                            input.concurrency,
                            falcon_par::task_seed(input.seed, arrival.index as usize),
                        );
                        cc = a.initial_settings().concurrency.clamp(1, input.concurrency);
                        agent = Some(a);
                    }
                    let id = alloc.add_stream(
                        f64::from(cc) * input.per_conn_cap,
                        f64::from(cc) * input.route_weight[r],
                        &input.route_links[r],
                    );
                    if alloc.dirty_links().is_empty() {
                        affected.push(id); // joined in place: no solve
                    }
                    let i = id as usize;
                    soa.ensure(i, rl);
                    soa.remaining[i] = arrival.size_mbits;
                    soa.last_t[i] = t;
                    soa.started[i] = t;
                    soa.size_mbits[i] = arrival.size_mbits;
                    soa.rate[i] = 0.0;
                    soa.route[i] = arrival.route;
                    soa.live[i] = true;
                    if let Some(a) = agent {
                        soa.agent[i] = Some(a);
                        soa.cc[i] = cc;
                        events.arm_probe(&mut soa, id, t);
                    }
                    active += 1;
                    if active > out.peak_active {
                        out.peak_active = active;
                        // The live tuners' heap, summed afresh: a shard reaches
                        // a new peak at most `peak_active` times, each a scan
                        // of slots bounded by that peak.
                        let tuners: usize = soa
                            .agent
                            .iter()
                            .flatten()
                            .map(FalconAgent::memory_bytes)
                            .sum();
                        let state = alloc.memory_bytes() + soa.memory_bytes() + tuners;
                        out.arena_bytes = out.arena_bytes.max(state);
                    }
                }
                Event::Depart(id) => {
                    let i = id as usize;
                    debug_assert!(soa.live[i] && soa.rate[i] > 0.0);
                    let dt = t - soa.last_t[i];
                    soa.remaining[i] -= soa.rate[i] * dt;
                    soa.last_t[i] = t;
                    if soa.remaining[i] > 1e-6 {
                        // fp drift undershot the prediction; re-predict — but
                        // only if the clock actually advances. At large t the
                        // residual/rate quotient can fall below one ulp of t;
                        // the transfer is then physically done and re-pushing
                        // at the same instant would loop forever.
                        let t_next = t + soa.remaining[i] / soa.rate[i];
                        if t_next > t {
                            events.departures.set(id, t_next, EV_DEPART);
                            continue;
                        }
                    }
                    out.completions += 1;
                    // falcon-lint::allow(float-time-accum, reason = "statistic, not a clock: sums completed-transfer durations for the mean; never fed back into event times")
                    out.duration_sum_s += t - soa.started[i];
                    out.bytes_mbits += soa.size_mbits[i];
                    soa.live[i] = false;
                    if rl {
                        soa.agent[i] = None; // free the tuner before id reuse
                        events.stale_probes += usize::from(soa.probe_armed[i]);
                        soa.probe_armed[i] = false;
                    }
                    active -= 1;
                    integrate_links(
                        &mut busy,
                        &mut link_last_t,
                        &mut load,
                        &input.route_links[soa.route[i] as usize],
                        t,
                        -soa.rate[i],
                    );
                    soa.rate[i] = 0.0;
                    alloc.remove_stream(id);
                }
                Event::Probe(id, gen) => {
                    let i = id as usize;
                    if !soa.live[i] || soa.probe_gen[i] != gen {
                        events.stale_probes -= 1;
                        continue; // departed transfer, or its id reused
                    }
                    // Fold the lazy integral to now so the probe measures the
                    // exact mbits delivered since the last decision.
                    let dt = t - soa.last_t[i];
                    soa.remaining[i] = (soa.remaining[i] - soa.rate[i] * dt).max(0.0);
                    soa.last_t[i] = t;
                    let interval = t - soa.probe_t[i];
                    let delivered = (soa.probe_rem[i] - soa.remaining[i]).max(0.0);
                    if soa.rate[i] <= 0.0 && delivered <= 0.0 {
                        // Stranded by an outage: stop probing rather than spin
                        // on zero-throughput observations. The post-solve loop
                        // re-arms when the allocator hands back a rate.
                        soa.probe_armed[i] = false;
                        continue;
                    }
                    out.probes += 1;
                    let thr = if interval > 0.0 {
                        delivered / interval
                    } else {
                        0.0
                    };
                    let settings = TransferSettings::with_concurrency(soa.cc[i]);
                    // The fluid model is lossless: the Eq 4 penalty term is 0
                    // and the tuner optimizes n·t/Kⁿ alone.
                    let metrics =
                        ProbeMetrics::from_aggregate(settings, thr, 0.0, interval.max(1e-9));
                    let next = soa.agent[i]
                        .as_mut()
                        .map(|a| a.observe(metrics))
                        .unwrap_or(settings);
                    let new_cc = next.concurrency.clamp(1, input.concurrency);
                    if new_cc != soa.cc[i] {
                        soa.cc[i] = new_cc;
                        let r = soa.route[i] as usize;
                        if alloc.update_stream(
                            id,
                            f64::from(new_cc) * input.per_conn_cap,
                            f64::from(new_cc) * input.route_weight[r],
                        ) {
                            affected.push(id); // re-rated in place: no solve
                        }
                    }
                    events.arm_probe(&mut soa, id, t);
                }
            }
            // Only events that acted get here — a re-predicted departure and
            // a probe for a departed or stranded transfer `continue`d above —
            // so the makespan ends at the last real event.
            out.makespan_s = t;
            // Re-solve only the dirty component (a join or re-rate applied
            // in place left nothing dirty and queued its stream above, a
            // leave in place moves no other rate); apply the rate deltas.
            affected.extend_from_slice(alloc.solve());
            for &sid in &affected {
                let i = sid as usize;
                if !soa.live[i] {
                    continue;
                }
                let new = alloc.rate(sid);
                if new == soa.rate[i] {
                    continue;
                }
                let dt = t - soa.last_t[i];
                soa.remaining[i] = (soa.remaining[i] - soa.rate[i] * dt).max(0.0);
                soa.last_t[i] = t;
                integrate_links(
                    &mut busy,
                    &mut link_last_t,
                    &mut load,
                    &input.route_links[soa.route[i] as usize],
                    t,
                    new - soa.rate[i],
                );
                soa.rate[i] = new;
                if new > 0.0 {
                    let due = t + soa.remaining[i] / new;
                    events.departures.set(sid, due, EV_DEPART);
                    if rl && !soa.probe_armed[i] {
                        // Outage recovery: restart the probe clock from here
                        // (the old probe chain ended when it disarmed).
                        events.arm_probe(&mut soa, sid, t);
                    }
                } else {
                    events.departures.remove(sid);
                }
            }
            affected.clear();
        }
        out.solves = alloc.solves;
        out.streams_resolved = alloc.streams_resolved;
        out.in_place = alloc.in_place;
        out.stranded = u64::from(active);
        for (l, &g) in input.global_link.iter().enumerate() {
            let settled = busy[l] + load[l] * (out.makespan_s - link_last_t[l]);
            out.link_busy.push((g, settled));
        }
        Ok(out)
    }
}

/// Fold `delta` into the lazy per-link busy integrals at time `t`.
fn integrate_links(
    busy: &mut [f64],
    link_last_t: &mut [f64],
    load: &mut [f64],
    links: &[u32],
    t: f64,
    delta: f64,
) {
    for &l in links {
        let li = l as usize;
        busy[li] += load[li] * (t - link_last_t[li]);
        link_last_t[li] = t;
        load[li] += delta;
    }
}

#[cfg(test)]
mod merge_order;

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> ScaleCampaignSpec {
        ScaleCampaignSpec {
            topology: ScaleTopology::dumbbell_wan(4, &[10.0, 80.0], 10.0, 20.0),
            workload: ScaleWorkload {
                transfers: 400,
                arrivals_per_min: 1200.0,
                mean_file_mb: 80.0,
                concurrency: 2,
                per_conn_cap_mbps: 2_000.0,
                ..ScaleWorkload::default()
            },
            failures: Vec::new(),
            duration_s: 120.0,
            seed: 7,
            shards: 2,
        }
    }

    /// Global indices of the dumbbell's shared trunks.
    fn trunks(spec: &ScaleCampaignSpec) -> Vec<u32> {
        let links = spec.topology.links.iter().enumerate();
        links
            .filter(|(_, l)| l.name.starts_with("wan"))
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn campaign_completes_all_transfers_without_failures() {
        let r = run_scale_campaign(&small_spec(), 1);
        assert_eq!(r.transfers, 400);
        assert_eq!(r.completions, 400);
        assert_eq!(r.stranded, 0);
        assert!(r.makespan_s > 0.0 && r.bytes_gb > 0.0);
        assert!(r.mean_duration_s > 0.0);
        assert!(r.solves > 0 && r.streams_resolved > 0);
    }

    #[test]
    fn thread_count_never_changes_the_summary() {
        let spec = small_spec();
        let one = run_scale_campaign(&spec, 1).summary();
        for threads in [2, 4, 8] {
            assert_eq!(one, run_scale_campaign(&spec, threads).summary());
        }
    }

    #[test]
    fn shard_count_is_part_of_the_spec_not_the_machine() {
        let mut spec = small_spec();
        spec.shards = 1;
        let merged = run_scale_campaign(&spec, 4);
        assert_eq!(merged.shards, 1);
        // Different sharding regroups components but conserves totals.
        spec.shards = 2;
        let split = run_scale_campaign(&spec, 4);
        assert_eq!(merged.completions, split.completions);
        assert!((merged.bytes_gb - split.bytes_gb).abs() < 1e-9);
    }

    #[test]
    fn shards_clamp_to_component_count() {
        let mut spec = small_spec();
        spec.shards = 64; // dumbbell with 2 classes has 2 components
        let r = run_scale_campaign(&spec, 2);
        assert_eq!(r.shards, 2);
        assert_eq!(r.completions, r.transfers);
    }

    #[test]
    fn failures_strand_transfers_when_capacity_never_recovers() {
        let mut spec = small_spec();
        // Kill both trunks at t=5 permanently: factor 0 pins rates at 0,
        // so the queue drains with live transfers left behind.
        spec.failures = vec![LinkFailure {
            at_s: 5.0,
            duration_s: f64::INFINITY,
            factor: 0.0,
            links: trunks(&spec),
        }];
        let r = run_scale_campaign(&spec, 1);
        assert!(r.stranded > 0, "zero-capacity trunks must strand transfers");
        assert!(r.completions < r.transfers);
    }

    #[test]
    fn failure_recovery_lets_the_campaign_finish() {
        let mut spec = small_spec();
        spec.failures = correlated_failure_waves(&spec.topology, 3, spec.duration_s);
        let r = run_scale_campaign(&spec, 2);
        assert_eq!(r.stranded, 0, "recovered failures must not strand");
        assert_eq!(r.completions, r.transfers);
        // And the failure schedule must be deterministic.
        let again = correlated_failure_waves(&spec.topology, 3, spec.duration_s);
        assert_eq!(spec.failures, again);
    }

    /// Two outages overlapping on the same trunks hold them at the deeper
    /// factor until the *last* one ends — the campaign runs exactly as
    /// under the disjoint schedule that spells that timeline out. (A first
    /// recovery that wrote the baseline back would run the trunks at full
    /// capacity from t=25 and drain the backlog 13 s early.)
    #[test]
    fn overlapping_outages_recover_when_the_last_one_ends() {
        let mut spec = small_spec();
        let outage = |at_s: f64, until_s: f64, factor: f64| LinkFailure {
            at_s,
            duration_s: until_s - at_s,
            factor,
            links: trunks(&spec),
        };
        let (shallow, deep) = (outage(5.0, 25.0, 0.5), outage(10.0, 40.0, 0.1));
        let spelled_out = vec![outage(5.0, 10.0, 0.5), outage(10.0, 40.0, 0.1)];
        let run = |failures: Vec<LinkFailure>, spec: &mut ScaleCampaignSpec| {
            spec.failures = failures;
            let r = run_scale_campaign(spec, 1);
            assert_eq!((r.completions, r.stranded), (r.transfers, 0));
            (r.makespan_s, r.mean_duration_s)
        };
        let want = run(spelled_out, &mut spec);
        assert!(want.0 > 40.0, "the backlog must outlast the deep outage");
        assert_eq!(run(vec![shallow.clone(), deep.clone()], &mut spec), want);
        assert_eq!(run(vec![deep, shallow], &mut spec), want);
    }

    #[test]
    fn diurnal_and_tenant_churn_shape_arrivals_deterministically() {
        let mut spec = small_spec();
        spec.workload.diurnal = 0.6;
        spec.workload.diurnal_period_s = 60.0;
        spec.workload.tenants = 4;
        spec.workload.tenant_rotation_s = 15.0;
        spec.workload.transfers = 100_000; // horizon-capped instead
        let a: Vec<Arrival> = generate_arrivals(&spec).collect();
        let b: Vec<Arrival> = generate_arrivals(&spec).collect();
        assert!(!a.is_empty());
        assert_eq!(a, b);
        assert!(a.iter().zip(0..).all(|(x, i)| x.index == i));
        // Thinning + churn admit fewer arrivals than the homogeneous rate.
        let expected_max = spec.workload.arrivals_per_min / 60.0 * spec.duration_s;
        assert!((a.len() as f64) < expected_max);
        // Arrival times are sorted by construction.
        assert!(a.windows(2).all(|w| w[0].t_s <= w[1].t_s));
    }

    /// A variant of [`small_spec`] where transfers live long enough to
    /// hit several 5 s probe points.
    fn rl_spec(kind: RlKind) -> ScaleCampaignSpec {
        let mut spec = small_spec();
        spec.workload.tuner = ScaleTuner::Rl(kind);
        spec.workload.concurrency = 8; // the lattice ceiling in rl mode
                                       // Slow connections + big files: a transfer lives tens of seconds,
                                       // so the tuner's 5 s probe cadence actually steers it.
        spec.workload.per_conn_cap_mbps = 100.0;
        spec.workload.mean_file_mb = 500.0;
        spec.workload.transfers = 120;
        spec.workload.arrivals_per_min = 240.0;
        spec.duration_s = 400.0;
        spec
    }

    #[test]
    fn fixed_mode_schedules_no_probes() {
        let r = run_scale_campaign(&small_spec(), 1);
        assert_eq!(r.probes, 0);
    }

    #[test]
    fn rl_tuners_probe_and_drain_the_campaign() {
        for kind in [RlKind::Bandit, RlKind::Q, RlKind::Warm(None)] {
            let r = run_scale_campaign(&rl_spec(kind), 1);
            assert_eq!(r.completions, r.transfers, "{kind:?} left transfers");
            assert_eq!(r.stranded, 0);
            // Warm-start opens near the knee, so its transfers drain in
            // few probe intervals; cold learners probe far more.
            assert!(
                r.probes >= r.transfers / 4,
                "{kind:?} probed only {} for {} transfers",
                r.probes,
                r.transfers
            );
        }
    }

    #[test]
    fn rl_mode_is_thread_invariant() {
        let spec = rl_spec(RlKind::Bandit);
        let one = run_scale_campaign(&spec, 1);
        for threads in [2usize, 4] {
            let other = run_scale_campaign(&spec, threads);
            assert_eq!(one, other, "rl report diverged at {threads} threads");
        }
    }

    #[test]
    fn rl_probes_rearm_after_an_outage() {
        let mut spec = rl_spec(RlKind::Bandit);
        // A full blackout of every trunk mid-campaign: probes must pause
        // (no spinning on zero throughput) and resume on recovery.
        spec.failures = vec![LinkFailure {
            at_s: 30.0,
            duration_s: 60.0,
            factor: 0.0,
            links: trunks(&spec),
        }];
        let r = run_scale_campaign(&spec, 2);
        assert_eq!(r.stranded, 0, "recovered outage must not strand");
        assert_eq!(r.completions, r.transfers);
        assert!(r.probes > 0);
    }

    /// Which thread generates which block, which worker resumes a shard
    /// after it yields to the feeder's bound, and how many arrivals each
    /// shard has buffered, moves no number of the report, `peak_queue`
    /// included: it counts the one arrival a shard holds in hand.
    #[test]
    fn reports_do_not_depend_on_threads_or_feeder_blocks() {
        assert_eq!(std::mem::size_of::<Arrival>(), 24, "the queued record");
        let mut fat_tree = ScaleCampaignSpec::fat_tree_local(4, 800, 11);
        fat_tree.workload.arrivals_per_min = 6_000.0;
        fat_tree.failures = correlated_failure_waves(&fat_tree.topology, 2, 8.0);
        for spec in [rl_spec(RlKind::Bandit), fat_tree] {
            let want = run_scale_campaign(&spec, 1);
            for threads in [1, 2, 3, 8] {
                for block in [1, 7, 4096] {
                    let (got, _) = run(&spec, threads, &Tracer::disabled(), block);
                    assert_eq!(got, want, "{threads} threads, blocks of {block}");
                }
            }
        }
        // Transfers that never overlap: the pending peak is the arrival
        // in hand and the departure of the transfer before it.
        let mut sparse = small_spec();
        sparse.workload.arrivals_per_min = 0.1;
        sparse.workload.transfers = 10;
        sparse.duration_s = 1e6;
        sparse.shards = 1;
        let (r, _) = run(&sparse, 1, &Tracer::disabled(), 1);
        assert_eq!((r.transfers, r.peak_active, r.peak_queue), (10, 1, 2));
    }

    /// The feeder runs at most one block ahead of the shards: it never
    /// queues `2 · block` arrivals, however long the campaign. Were each
    /// shard run to its end in turn, the first alone would leave three
    /// quarters of these 12 000 arrivals queued for the other three.
    #[test]
    fn buffered_arrivals_stay_under_two_blocks() {
        let mut spec = ScaleCampaignSpec::fat_tree_local(4, 12_000, 5);
        spec.workload.mean_file_mb = 0.5; // a few live transfers: cheap events
        spec.duration_s = 60.0;
        for threads in [1, 2, 8] {
            for block in [1, 7, 4096] {
                let (r, peak) = run(&spec, threads, &Tracer::disabled(), block);
                assert_eq!(r.completions, 12_000);
                assert!(
                    peak < 2 * block,
                    "{peak} arrivals queued at {threads} threads, blocks of {block}"
                );
            }
        }
    }

    #[test]
    fn traced_run_counts_match_report() {
        let spec = small_spec();
        let tracer = Tracer::recording();
        let r = run_scale_campaign_traced(&spec, 2, &tracer);
        let log = tracer.take_log();
        assert_eq!(log.counter("fleet.scale.transfers"), Some(r.transfers));
        assert_eq!(log.counter("fleet.scale.completions"), Some(r.completions));
        assert_eq!(log.counter("fleet.scale.solves"), Some(r.solves));
        assert_eq!(
            log.counter("fleet.scale.in_place"),
            Some(0),
            "fixed never re-rates"
        );
        let r = run_scale_campaign_traced(&rl_spec(RlKind::Bandit), 2, &tracer);
        let log = tracer.take_log();
        assert!(r.in_place > 0);
        assert_eq!(log.counter("fleet.scale.in_place"), Some(r.in_place));
    }

    #[test]
    fn utilization_is_bounded_and_summary_lists_top_links() {
        let r = run_scale_campaign(&small_spec(), 1);
        assert!(!r.links.is_empty());
        for (name, u) in &r.links {
            assert!(*u >= 0.0 && *u <= 1.0 + 1e-9, "{name} utilization {u}");
        }
        let s = r.summary();
        assert!(s.contains("top links by utilization"));
        assert!(s.contains("transfers 400"));
    }
}
