//! The harness interface between tuners and byte-moving substrates.

use falcon_core::{ProbeMetrics, TransferSettings};
use falcon_sim::{AgentHandle, AgentSettings, Simulation};

use crate::dataset::Dataset;
use crate::job::TransferJob;
use crate::pipelining::thread_efficiency;

/// A substrate that can run several concurrent transfer tasks and report
/// black-box metrics for each. Implemented by [`SimHarness`] here and by
/// the real loopback engine in the `falcon-net` crate.
pub trait TransferHarness {
    /// Register a new transfer task for `dataset`; returns its slot id.
    fn join(&mut self, dataset: Dataset) -> usize;

    /// Apply application-layer settings to a task.
    fn apply(&mut self, agent: usize, settings: TransferSettings);

    /// Advance wall-clock time.
    fn advance(&mut self, dt_s: f64);

    /// Advance wall-clock time to an absolute instant. Past or present
    /// targets are no-ops. Event-driven substrates reach the target in one
    /// analytic hop; the default forwards to [`TransferHarness::advance`].
    fn advance_until(&mut self, t_s: f64) {
        let dt = t_s - self.time_s();
        if dt > 0.0 {
            self.advance(dt);
        }
    }

    /// No product caller: every substrate is event-driven or real-time and
    /// ignores a tick size. Stays only because `bench/layers` implements it.
    fn set_time_resolution(&mut self, _dt_s: f64) {}

    /// Consume the interval metrics accumulated since the last sample.
    fn sample(&mut self, agent: usize) -> ProbeMetrics;

    /// Instantaneous (un-averaged) goodput of a task, for trace plots.
    fn instantaneous_mbps(&self, agent: usize) -> f64;

    /// The settings currently applied to a task.
    fn current_settings(&self, agent: usize) -> TransferSettings;

    /// Whether the task's dataset has been fully delivered.
    fn is_complete(&self, agent: usize) -> bool;

    /// Remove a task before completion (scripted departures).
    fn leave(&mut self, agent: usize);

    /// Current wall-clock time (seconds).
    fn time_s(&self) -> f64;

    /// Probe interval appropriate for this substrate (3 s LAN / 5 s WAN).
    fn sample_interval_s(&self) -> f64;

    /// Upper bound of the concurrency search space.
    fn max_concurrency(&self) -> u32;

    /// Whether the task's transfer process is still attached and able to
    /// move bytes. `false` means the process died mid-transfer (crash,
    /// scripted kill) and the runner may attempt [`TransferHarness::restart`].
    /// Substrates without process failure keep the default (always `true`).
    fn is_attached(&self, _agent: usize) -> bool {
        true
    }

    /// Attempt to restart a detached transfer process, preserving whatever
    /// bytes it already delivered. Returns whether a restart was initiated
    /// (or the process was already running). Default: unsupported.
    fn restart(&mut self, _agent: usize) -> bool {
        false
    }
}

struct Slot {
    handle: AgentHandle,
    job: TransferJob,
    /// All the pipelining-efficiency model reads of the dataset.
    mean_file_bytes: u64,
    settings: TransferSettings,
    share_weight: f64,
    complete: bool,
    /// Megabits already credited to `job` out of the simulator's monotonic
    /// per-agent delivery counter. Deliveries are settled as deltas of that
    /// counter, so they are exact no matter how time is sliced.
    taken_mbits: f64,
}

/// [`TransferHarness`] backed by the fluid simulator.
pub struct SimHarness {
    sim: Simulation,
    slots: Vec<Slot>,
    /// Nominal per-thread rate used by the pipelining-efficiency model:
    /// the tightest per-process disk throttle of the environment.
    nominal_thread_mbps: f64,
    /// Per-slot fair-share weights, by join order (missing → 1.0). Models
    /// TCP RTT unfairness between transfers on different paths.
    agent_weights: Vec<f64>,
    /// Per-slot route masks, by join order (missing → full end-to-end
    /// path). Routes joins through
    /// [`falcon_sim::Simulation::add_agent_on_path`] for fleet topologies.
    agent_paths: Vec<u64>,
}

impl SimHarness {
    /// Wrap a simulation.
    pub fn new(sim: Simulation) -> Self {
        let nominal = sim
            .env()
            .resources
            .iter()
            .filter(|r| r.kind.is_disk())
            .filter_map(|r| r.per_stream_cap_mbps)
            .fold(f64::INFINITY, f64::min);
        let nominal_thread_mbps = if nominal.is_finite() {
            nominal
        } else {
            sim.env().path_capacity_mbps()
        };
        SimHarness {
            sim,
            slots: Vec::new(),
            nominal_thread_mbps,
            agent_weights: Vec::new(),
            agent_paths: Vec::new(),
        }
    }

    /// Assign per-connection fair-share weights to agents by join order
    /// (builder style). Agents beyond the list get weight 1.0; invalid
    /// (non-positive or non-finite) weights are replaced by that same
    /// neutral 1.0 rather than panicking mid-campaign.
    pub fn with_agent_weights(mut self, weights: Vec<f64>) -> Self {
        debug_assert!(weights.iter().all(|&w| w > 0.0));
        self.agent_weights = weights
            .into_iter()
            .map(|w| if w > 0.0 && w.is_finite() { w } else { 1.0 })
            .collect();
        self
    }

    /// Assign route masks to agents by join order (builder style). Agents
    /// beyond the list cross the full end-to-end path. Bit `i` of a mask
    /// selects resource `i` of the environment.
    pub fn with_agent_paths(mut self, paths: Vec<u64>) -> Self {
        debug_assert!(paths.iter().all(|&m| m != 0));
        self.agent_paths = paths;
        self
    }

    /// Access the underlying simulation (e.g., to script background flows).
    pub fn sim_mut(&mut self) -> &mut Simulation {
        &mut self.sim
    }

    /// Access the underlying simulation immutably.
    pub fn sim(&self) -> &Simulation {
        &self.sim
    }

    /// Credit each live job with the bytes the simulator moved since the
    /// last settlement, and retire jobs that finished.
    fn settle_deliveries(&mut self) {
        for slot in &mut self.slots {
            if slot.complete {
                continue;
            }
            let total = self.sim.delivered_mbits_total(slot.handle);
            slot.job.deliver_mbits(total - slot.taken_mbits);
            slot.taken_mbits = total;
            if slot.job.is_complete() {
                slot.complete = true;
                self.sim.remove_agent(slot.handle);
            }
        }
    }

    fn to_agent_settings(&self, slot: &Slot) -> AgentSettings {
        let eff = thread_efficiency(
            slot.mean_file_bytes,
            slot.settings,
            self.sim.env().rtt_s,
            self.nominal_thread_mbps / f64::from(slot.settings.parallelism.max(1)),
        );
        AgentSettings {
            concurrency: slot.settings.concurrency,
            parallelism: slot.settings.parallelism,
            efficiency: eff,
            share_weight: slot.share_weight,
        }
    }
}

impl TransferHarness for SimHarness {
    fn join(&mut self, dataset: Dataset) -> usize {
        let handle = match self.agent_paths.get(self.slots.len()) {
            Some(&mask) => self.sim.add_agent_on_path(mask),
            None => self.sim.add_agent(),
        };
        let job = TransferJob::new(&dataset);
        let share_weight = self
            .agent_weights
            .get(self.slots.len())
            .copied()
            .unwrap_or(1.0);
        self.slots.push(Slot {
            handle,
            job,
            mean_file_bytes: dataset.mean_file_bytes(),
            settings: TransferSettings::with_concurrency(1),
            share_weight,
            complete: false,
            taken_mbits: 0.0,
        });
        let id = self.slots.len() - 1;
        self.apply(id, TransferSettings::with_concurrency(1));
        id
    }

    fn apply(&mut self, agent: usize, settings: TransferSettings) {
        let slot = &mut self.slots[agent];
        slot.settings = settings;
        if !slot.complete {
            let s = self.to_agent_settings(&self.slots[agent]);
            let h = self.slots[agent].handle;
            // A killed agent remembers the settings for its next revive.
            let _ = self.sim.try_set_settings(h, s);
        }
    }

    fn advance(&mut self, dt_s: f64) {
        self.sim.advance(dt_s);
        self.settle_deliveries();
    }

    fn advance_until(&mut self, t_s: f64) {
        self.sim.run_until(t_s);
        self.settle_deliveries();
    }

    fn sample(&mut self, agent: usize) -> ProbeMetrics {
        let slot = &self.slots[agent];
        let settings = slot.settings;
        match self.sim.try_take_sample(slot.handle) {
            Some(s) => ProbeMetrics {
                settings,
                aggregate_mbps: s.throughput_mbps,
                per_thread_mbps: s.throughput_mbps / f64::from(settings.concurrency.max(1)),
                loss_rate: s.loss_rate,
                interval_s: s.interval_s,
            },
            // A dead process measures nothing; the runner's watchdog is
            // expected to notice via `is_attached` and discard this.
            None => ProbeMetrics {
                settings,
                aggregate_mbps: 0.0,
                per_thread_mbps: 0.0,
                loss_rate: 0.0,
                interval_s: 0.0,
            },
        }
    }

    fn instantaneous_mbps(&self, agent: usize) -> f64 {
        let slot = &self.slots[agent];
        if slot.complete {
            0.0
        } else {
            self.sim
                .try_instantaneous_rate_mbps(slot.handle)
                .unwrap_or(0.0)
        }
    }

    fn current_settings(&self, agent: usize) -> TransferSettings {
        self.slots[agent].settings
    }

    fn is_complete(&self, agent: usize) -> bool {
        self.slots[agent].complete
    }

    fn leave(&mut self, agent: usize) {
        let slot = &mut self.slots[agent];
        if !slot.complete {
            slot.complete = true;
            self.sim.remove_agent(slot.handle);
        }
    }

    fn time_s(&self) -> f64 {
        self.sim.time_s()
    }

    fn sample_interval_s(&self) -> f64 {
        self.sim.env().sample_interval_s
    }

    fn max_concurrency(&self) -> u32 {
        self.sim.env().max_concurrency
    }

    fn is_attached(&self, agent: usize) -> bool {
        let slot = &self.slots[agent];
        slot.complete || self.sim.is_alive(slot.handle)
    }

    fn restart(&mut self, agent: usize) -> bool {
        let slot = &self.slots[agent];
        if slot.complete {
            return false;
        }
        if !self.sim.is_alive(slot.handle) {
            self.sim.revive_agent(slot.handle);
            // Re-push the slot's settings so the revived pool matches what
            // the tuner last chose.
            let s = self.to_agent_settings(&self.slots[agent]);
            let h = self.slots[agent].handle;
            let _ = self.sim.try_set_settings(h, s);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, FileSpec, KIB};
    use falcon_sim::Environment;

    fn harness(env: Environment) -> SimHarness {
        SimHarness::new(Simulation::new(env.without_noise(), 11))
    }

    #[test]
    fn join_apply_sample_roundtrip() {
        let mut h = harness(Environment::emulab(100.0));
        let a = h.join(Dataset::uniform_1gb(100));
        h.apply(a, TransferSettings::with_concurrency(10));
        for _ in 0..300 {
            h.advance(0.1);
        }
        let m = h.sample(a);
        assert_eq!(m.settings.concurrency, 10);
        assert!(m.aggregate_mbps > 900.0, "got {}", m.aggregate_mbps);
        assert!((m.interval_s - 30.0).abs() < 0.5);
    }

    #[test]
    fn completion_removes_agent_from_network() {
        // Tiny dataset completes quickly and frees bandwidth.
        let mut h = harness(Environment::emulab(100.0));
        let tiny = Dataset {
            name: "tiny",
            files: vec![FileSpec {
                size_bytes: 50 * KIB,
                count: 2,
            }],
        };
        let a = h.join(tiny);
        h.apply(a, TransferSettings::with_concurrency(4));
        for _ in 0..600 {
            h.advance(0.1);
            if h.is_complete(a) {
                break;
            }
        }
        assert!(h.is_complete(a));
        assert_eq!(h.instantaneous_mbps(a), 0.0);
    }

    #[test]
    fn small_files_without_pipelining_underperform() {
        let run = |pp: u32| {
            let mut h = harness(Environment::stampede2_comet());
            let a = h.join(Dataset::small(3));
            h.apply(
                a,
                TransferSettings {
                    concurrency: 16,
                    parallelism: 1,
                    pipelining: pp,
                },
            );
            for _ in 0..400 {
                h.advance(0.1);
            }
            h.sample(a).aggregate_mbps
        };
        let no_pp = run(1);
        let pp16 = run(16);
        assert!(
            pp16 > 2.0 * no_pp,
            "pipelining should multiply small-file throughput: {no_pp} -> {pp16}"
        );
    }

    #[test]
    fn leave_removes_agent() {
        let mut h = harness(Environment::emulab(100.0));
        let a = h.join(Dataset::uniform_1gb(100));
        let b = h.join(Dataset::uniform_1gb(100));
        h.apply(a, TransferSettings::with_concurrency(10));
        h.apply(b, TransferSettings::with_concurrency(10));
        for _ in 0..200 {
            h.advance(0.1);
        }
        h.sample(a);
        h.leave(b);
        for _ in 0..200 {
            h.advance(0.1);
        }
        let m = h.sample(a);
        assert!(m.aggregate_mbps > 900.0, "got {}", m.aggregate_mbps);
    }

    #[test]
    fn agent_weights_bias_shares() {
        let mut h = SimHarness::new(Simulation::new(
            Environment::emulab(100.0).without_noise(),
            11,
        ))
        .with_agent_weights(vec![1.0, 0.5]);
        let a = h.join(Dataset::uniform_1gb(100_000));
        let b = h.join(Dataset::uniform_1gb(100_000));
        h.apply(a, TransferSettings::with_concurrency(10));
        h.apply(b, TransferSettings::with_concurrency(10));
        for _ in 0..600 {
            h.advance(0.1);
        }
        let ra = h.sample(a).aggregate_mbps;
        let rb = h.sample(b).aggregate_mbps;
        let ratio = ra / rb;
        assert!((1.7..2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn agent_paths_route_joins_onto_their_links() {
        let mut h = SimHarness::new(Simulation::new(
            Environment::fleet(&[500.0, 500.0]).without_noise(),
            11,
        ))
        .with_agent_paths(vec![0b01, 0b10]);
        let a = h.join(Dataset::uniform_1gb(100_000));
        let b = h.join(Dataset::uniform_1gb(100_000));
        h.apply(a, TransferSettings::with_concurrency(2));
        h.apply(b, TransferSettings::with_concurrency(2));
        for _ in 0..300 {
            h.advance(0.1);
        }
        // Disjoint routes: both saturate their own 500 Mbps link.
        let ra = h.sample(a).aggregate_mbps;
        let rb = h.sample(b).aggregate_mbps;
        assert!(ra > 450.0, "a got {ra}");
        assert!(rb > 450.0, "b got {rb}");
    }

    #[test]
    fn exabyte_dataset_costs_one_entry_however_often_it_is_applied() {
        // 2^33 one-GiB files are 2^63 bytes; per-file state anywhere on
        // this path would need tens of GiB per copy.
        let dataset = Dataset::uniform_1gb(1 << 33);
        assert_eq!(dataset.files.len(), 1);
        assert_eq!(dataset.total_bytes(), 1 << 63);
        let mut h = harness(Environment::emulab(100.0));
        let a = h.join(dataset);
        for i in 0..10_000u32 {
            h.apply(a, TransferSettings::with_concurrency(1 + i % 16));
        }
        h.advance(30.0);
        assert!(!h.is_complete(a));
        assert!(h.sample(a).aggregate_mbps > 0.0);
    }

    #[test]
    fn sample_interval_follows_environment() {
        let h = harness(Environment::hpclab());
        assert_eq!(h.sample_interval_s(), 3.0);
        let h = harness(Environment::xsede());
        assert_eq!(h.sample_interval_s(), 5.0);
    }
}
