//! Adapter: run the experiment [`falcon_transfer::Runner`] against the real
//! loopback engine. `advance()` sleeps wall-clock time, so simulated and
//! real experiments share one probe loop, and real sockets get what every
//! simulated run has: the warm-up discard, the stalled-probe discard and
//! the restart watchdog, whose `restart` respawns the workers that died.
//! `falcon loopback` is this harness under the runner.

use std::time::Duration;

use falcon_core::{ProbeMetrics, TransferSettings};
use falcon_trace::Tracer;
use falcon_transfer::dataset::Dataset;
use falcon_transfer::harness::TransferHarness;

use crate::receiver::Receiver;
use crate::sender::{LoopbackConfig, LoopbackTransfer};

/// [`TransferHarness`] over live loopback transfers.
pub struct NetHarness {
    receiver: Receiver,
    transfers: Vec<LoopbackTransfer>,
    per_worker_mbps: f64,
    max_workers: u32,
    sample_interval_s: f64,
    elapsed_s: f64,
    tracer: Tracer,
}

impl NetHarness {
    /// Start a receiver and prepare to host transfers. `per_worker_mbps` is
    /// the emulated per-process I/O cap.
    pub fn start(
        per_worker_mbps: f64,
        max_workers: u32,
        sample_interval_s: f64,
    ) -> std::io::Result<Self> {
        Ok(NetHarness {
            receiver: Receiver::start()?,
            transfers: Vec::new(),
            per_worker_mbps,
            max_workers,
            sample_interval_s,
            elapsed_s: 0.0,
            tracer: Tracer::default(),
        })
    }

    /// The shared receiver: its port, the bytes it has drained, and its
    /// fault-injection hooks (stop listening, cut a connection).
    pub fn receiver_mut(&mut self) -> &mut Receiver {
        &mut self.receiver
    }

    /// Install a tracer: each joining transfer gets an agent-scoped handle
    /// for its connection-lifecycle events, and `advance` stamps harness
    /// time on the shared clock.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }
}

impl TransferHarness for NetHarness {
    fn join(&mut self, dataset: Dataset) -> usize {
        // Never panics: workers establish their own connections with retry
        // and backoff, and a pool that cannot connect at all just reports
        // itself detached (the runner's watchdog then keeps retrying).
        let mut t = LoopbackTransfer::start(LoopbackConfig {
            port: self.receiver.port(),
            per_worker_mbps: self.per_worker_mbps,
            total_bytes: dataset.total_bytes(),
            max_workers: self.max_workers,
        });
        t.set_tracer(self.tracer.for_agent(self.transfers.len() as u32));
        self.transfers.push(t);
        self.transfers.len() - 1
    }

    fn apply(&mut self, agent: usize, settings: TransferSettings) {
        self.transfers[agent].apply_settings(settings);
    }

    fn advance(&mut self, dt_s: f64) {
        std::thread::sleep(Duration::from_secs_f64(dt_s));
        self.elapsed_s += dt_s;
        self.tracer.set_time(self.elapsed_s);
    }

    fn sample(&mut self, agent: usize) -> ProbeMetrics {
        self.transfers[agent].sample()
    }

    fn instantaneous_mbps(&self, agent: usize) -> f64 {
        self.transfers[agent].peek_rate()
    }

    fn current_settings(&self, agent: usize) -> TransferSettings {
        self.transfers[agent].settings()
    }

    fn is_complete(&self, agent: usize) -> bool {
        self.transfers[agent].is_complete()
    }

    fn leave(&mut self, agent: usize) {
        self.transfers[agent].shutdown();
    }

    fn time_s(&self) -> f64 {
        self.elapsed_s
    }

    fn sample_interval_s(&self) -> f64 {
        self.sample_interval_s
    }

    fn max_concurrency(&self) -> u32 {
        self.max_workers
    }

    fn is_attached(&self, agent: usize) -> bool {
        let t = &self.transfers[agent];
        t.is_complete() || t.alive_workers() > 0
    }

    fn restart(&mut self, agent: usize) -> bool {
        let t = &self.transfers[agent];
        if t.is_complete() {
            return false;
        }
        t.respawn_dead_workers();
        true
    }
}
