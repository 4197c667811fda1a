//! The source side: a dynamic pool of throttled file-worker threads.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use falcon_core::{ProbeMetrics, TransferSettings};
use falcon_trace::{TraceEvent, Tracer};

use crate::sync::Mutex;

use crate::throttle::TokenBucket;

/// Configuration of a loopback transfer.
#[derive(Debug, Clone, Copy)]
pub struct LoopbackConfig {
    /// Receiver port (from [`crate::Receiver::port`]).
    pub port: u16,
    /// Per-worker token-bucket rate (the per-process I/O cap), Mbps.
    pub per_worker_mbps: f64,
    /// Byte budget; the transfer completes when this many bytes are sent.
    /// `u64::MAX` for open-ended experiments.
    pub total_bytes: u64,
    /// Hard ceiling on worker threads.
    pub max_workers: u32,
}

struct Shared {
    sent_bytes: AtomicU64,
    stop_all: AtomicBool,
    budget: AtomicU64,
    live_workers: AtomicU64,
    connect_retries: AtomicU64,
    reconnects: AtomicU64,
    worker_deaths: AtomicU64,
}

/// Counters of the fault handling inside the worker pool. All values are
/// cumulative since [`LoopbackTransfer::start`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Connect attempts that failed and were retried under backoff.
    pub connect_retries: u64,
    /// Streams successfully re-established after a mid-transfer IO error.
    pub reconnects: u64,
    /// Workers that exited because every stream (re)connect failed —
    /// the pool degrades to the surviving workers instead of panicking.
    /// A worker that a resize or shutdown retired while it was still
    /// connecting also leaves without a stream, but is not counted.
    pub worker_deaths: u64,
}

struct Worker {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

/// Connect/reconnect backoff: base 10 ms doubling to 500 ms, ±50% jitter.
const CONNECT_ATTEMPTS: u32 = 6;
const BACKOFF_BASE: Duration = Duration::from_millis(10);
const BACKOFF_CAP: Duration = Duration::from_millis(500);

/// Connect to the receiver, retrying transient failures under capped
/// exponential backoff with jitter (so a pool of workers re-connecting
/// after an outage does not stampede in lockstep).
fn connect_with_retry(port: u16, shared: &Shared, abort: impl Fn() -> bool) -> Option<TcpStream> {
    use rand::{Rng, SeedableRng};
    // The vendored `rand` has no thread_rng; a counter-seeded StdRng gives
    // each (re)connect attempt sequence its own jitter stream.
    static JITTER_SEED: AtomicU64 = AtomicU64::new(0x7E57_C0DE);
    let mut rng = rand::rngs::StdRng::seed_from_u64(JITTER_SEED.fetch_add(1, Ordering::Relaxed));
    let mut backoff = BACKOFF_BASE;
    for attempt in 0..CONNECT_ATTEMPTS {
        if abort() {
            return None;
        }
        match TcpStream::connect(("127.0.0.1", port)) {
            Ok(s) => {
                let _ = s.set_write_timeout(Some(Duration::from_millis(200)));
                return Some(s);
            }
            Err(_) if attempt + 1 < CONNECT_ATTEMPTS => {
                shared.connect_retries.fetch_add(1, Ordering::Relaxed);
                let jitter = rng.gen_range(0.5..1.5);
                std::thread::sleep(backoff.mul_f64(jitter).min(BACKOFF_CAP));
                backoff = (backoff * 2).min(BACKOFF_CAP);
            }
            Err(_) => return None,
        }
    }
    None
}

/// A live loopback transfer with a dynamically sized worker pool.
///
/// `set_settings` resizes the pool (concurrency) and reconnects workers
/// with the requested number of sockets each (parallelism); pipelining has
/// no wire effect on loopback (there are no per-file control round trips)
/// and is accepted for interface compatibility.
pub struct LoopbackTransfer {
    config: LoopbackConfig,
    shared: Arc<Shared>,
    workers: Mutex<Vec<Worker>>,
    settings: Mutex<TransferSettings>,
    last_sample: Mutex<(Instant, u64)>,
    last_peek: Mutex<(Instant, u64)>,
    tracer: Tracer,
}

impl LoopbackTransfer {
    /// Start with one worker. Connection establishment happens inside the
    /// worker threads (with retry and backoff), so starting never fails.
    pub fn start(config: LoopbackConfig) -> Self {
        let shared = Arc::new(Shared {
            sent_bytes: AtomicU64::new(0),
            stop_all: AtomicBool::new(false),
            budget: AtomicU64::new(config.total_bytes),
            live_workers: AtomicU64::new(0),
            connect_retries: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            worker_deaths: AtomicU64::new(0),
        });
        let t = LoopbackTransfer {
            config,
            shared,
            workers: Mutex::new(Vec::new()),
            settings: Mutex::new(TransferSettings::with_concurrency(1)),
            last_sample: Mutex::new((Instant::now(), 0)),
            last_peek: Mutex::new((Instant::now(), 0)),
            tracer: Tracer::default(),
        };
        t.apply_settings(TransferSettings::with_concurrency(1));
        t
    }

    /// Install a tracer for connection-lifecycle events (pool resizes,
    /// respawns, shutdown).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Resize the worker pool to match `settings`.
    pub fn apply_settings(&self, settings: TransferSettings) {
        let target = settings.concurrency.min(self.config.max_workers) as usize;
        let parallelism = settings.parallelism.max(1);
        let mut workers = self.workers.lock();
        let mut current = self.settings.lock();
        let reconnect = current.parallelism != parallelism;
        *current = settings;
        drop(current);

        // Retire under the lock, join outside it: joining while holding the
        // pool mutex would serialize samplers and respawns behind worker
        // shutdown.
        let mut retired: Vec<Worker> = if reconnect {
            workers.drain(..).collect()
        } else {
            Vec::new()
        };
        while workers.len() > target {
            retired.extend(workers.pop());
        }
        while workers.len() < target {
            workers.push(self.spawn_worker(parallelism));
        }
        drop(workers);
        self.tracer.emit(|| TraceEvent::Connection {
            action: "apply_settings".to_string(),
            value: target as f64,
        });
        for w in retired {
            w.stop.store(true, Ordering::Relaxed);
            let _ = w.handle.join();
        }
    }

    /// Workers currently running (may be below the requested concurrency
    /// after faults — the degraded-pool signal for supervisors).
    pub fn alive_workers(&self) -> u64 {
        self.shared.live_workers.load(Ordering::Relaxed)
    }

    /// Cumulative fault-recovery counters of the worker pool.
    pub fn recovery_stats(&self) -> RecoveryStats {
        RecoveryStats {
            connect_retries: self.shared.connect_retries.load(Ordering::Relaxed),
            reconnects: self.shared.reconnects.load(Ordering::Relaxed),
            worker_deaths: self.shared.worker_deaths.load(Ordering::Relaxed),
        }
    }

    /// Reap workers that died (every stream lost) and spawn replacements up
    /// to the currently requested concurrency. Returns how many were
    /// respawned. This is the restart hook a supervising runner calls when
    /// it notices the pool degraded.
    pub fn respawn_dead_workers(&self) -> usize {
        if self.is_complete() || self.shared.stop_all.load(Ordering::Relaxed) {
            return 0;
        }
        let settings = self.settings();
        let target = settings.concurrency.min(self.config.max_workers) as usize;
        let parallelism = settings.parallelism.max(1);
        let mut workers = self.workers.lock();
        let old: Vec<Worker> = std::mem::take(&mut *workers);
        let mut dead = Vec::new();
        for w in old {
            if w.handle.is_finished() {
                dead.push(w);
            } else {
                workers.push(w);
            }
        }
        let mut respawned = 0;
        while workers.len() < target {
            workers.push(self.spawn_worker(parallelism));
            respawned += 1;
        }
        drop(workers);
        if respawned > 0 {
            self.tracer.emit(|| TraceEvent::Connection {
                action: "respawn".to_string(),
                value: respawned as f64,
            });
        }
        // The handles are finished, but join still synchronizes with thread
        // teardown — keep it off the pool lock.
        for w in dead {
            let _ = w.handle.join();
        }
        respawned
    }

    fn spawn_worker(&self, parallelism: u32) -> Worker {
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::clone(&self.shared);
        let port = self.config.port;
        let rate = self.config.per_worker_mbps;
        let stop2 = Arc::clone(&stop);
        shared.live_workers.fetch_add(1, Ordering::Relaxed);
        let handle = std::thread::spawn(move || {
            let abort = |sh: &Shared, st: &AtomicBool| {
                st.load(Ordering::Relaxed) || sh.stop_all.load(Ordering::Relaxed)
            };
            // Leaving with no stream is a death unless the worker was asked
            // to stop: retirement makes `connect_with_retry` give up too.
            let leave_streamless = |sh: &Shared, st: &AtomicBool| {
                if !abort(sh, st) {
                    sh.worker_deaths.fetch_add(1, Ordering::Relaxed);
                }
                sh.live_workers.fetch_sub(1, Ordering::Relaxed);
            };
            let mut streams: Vec<TcpStream> = Vec::new();
            for _ in 0..parallelism {
                match connect_with_retry(port, &shared, || abort(&shared, &stop2)) {
                    Some(s) => streams.push(s),
                    // Degrade to however many streams did connect; a worker
                    // with zero streams cannot move bytes and exits below.
                    None => break,
                }
            }
            if streams.is_empty() {
                leave_streamless(&shared, &stop2);
                return;
            }
            let mut bucket = TokenBucket::new(rate);
            let chunk = vec![0xA5u8; 64 * 1024];
            let mut idx = 0usize;
            'outer: while !abort(&shared, &stop2) {
                // Budget check: claim a chunk before sending it.
                let claimed = shared
                    .budget
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                        Some(b.saturating_sub(chunk.len() as u64))
                    })
                    .unwrap_or(0);
                if claimed == 0 {
                    shared.stop_all.store(true, Ordering::Relaxed);
                    break;
                }
                let send_len = chunk.len().min(claimed as usize);
                let wait = bucket.acquire(send_len);
                if !wait.is_zero() {
                    std::thread::sleep(wait.min(Duration::from_millis(250)));
                }
                // Round-robin across surviving streams; on a hard IO error
                // try one reconnect, else drop the stream and carry on with
                // the rest (graceful degradation — never panic the run).
                loop {
                    if streams.is_empty() {
                        leave_streamless(&shared, &stop2);
                        return;
                    }
                    let n_streams = streams.len();
                    let slot = idx % n_streams;
                    idx = idx.wrapping_add(1);
                    match streams[slot].write_all(&chunk[..send_len]) {
                        Ok(()) => {
                            shared
                                .sent_bytes
                                .fetch_add(send_len as u64, Ordering::Relaxed);
                            continue 'outer;
                        }
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            continue 'outer;
                        }
                        Err(_) => {
                            match connect_with_retry(port, &shared, || abort(&shared, &stop2)) {
                                Some(s) => {
                                    streams[slot] = s;
                                    shared.reconnects.fetch_add(1, Ordering::Relaxed);
                                    // Retry this chunk on the fresh stream.
                                }
                                None => {
                                    streams.swap_remove(slot);
                                }
                            }
                        }
                    }
                }
            }
            shared.live_workers.fetch_sub(1, Ordering::Relaxed);
        });
        Worker { stop, handle }
    }

    /// Current settings.
    pub fn settings(&self) -> TransferSettings {
        *self.settings.lock()
    }

    /// Bytes sent so far.
    pub fn sent_bytes(&self) -> u64 {
        self.shared.sent_bytes.load(Ordering::Relaxed)
    }

    /// Whether the byte budget is exhausted.
    pub fn is_complete(&self) -> bool {
        self.shared.budget.load(Ordering::Relaxed) == 0
    }

    /// Interval metrics since the previous `sample` call. Loss on loopback
    /// is zero: this is the sender-limited regime of §3.1.
    pub fn sample(&self) -> ProbeMetrics {
        let mut last = self.last_sample.lock();
        let now = Instant::now();
        let sent = self.sent_bytes();
        let dt = now.duration_since(last.0).as_secs_f64().max(1e-6);
        let delta = sent - last.1;
        *last = (now, sent);
        let settings = self.settings();
        let mbps = delta as f64 * 8.0 / dt / 1e6;
        ProbeMetrics {
            settings,
            aggregate_mbps: mbps,
            per_thread_mbps: mbps / f64::from(settings.concurrency.max(1)),
            loss_rate: 0.0,
            interval_s: dt,
        }
    }

    /// Instantaneous-ish rate (Mbps) since the previous `peek_rate` call,
    /// without disturbing the probe accounting of [`LoopbackTransfer::sample`].
    /// Intended for trace recording at ~1 s resolution.
    pub fn peek_rate(&self) -> f64 {
        let mut last = self.last_peek.lock();
        let now = Instant::now();
        let sent = self.sent_bytes();
        let dt = now.duration_since(last.0).as_secs_f64();
        let delta = sent.saturating_sub(last.1);
        *last = (now, sent);
        if dt <= 1e-6 {
            return 0.0;
        }
        delta as f64 * 8.0 / dt / 1e6
    }

    /// Stop all workers.
    pub fn shutdown(&self) {
        let already_stopped = self.shared.stop_all.swap(true, Ordering::Relaxed);
        let retired: Vec<Worker> = self.workers.lock().drain(..).collect();
        if !already_stopped {
            let n = retired.len();
            self.tracer.emit(|| TraceEvent::Connection {
                action: "shutdown".to_string(),
                value: n as f64,
            });
        }
        for w in retired {
            w.stop.store(true, Ordering::Relaxed);
            let _ = w.handle.join();
        }
    }
}

impl Drop for LoopbackTransfer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::Receiver;

    fn engine(rx: &Receiver, per_worker_mbps: f64) -> LoopbackTransfer {
        LoopbackTransfer::start(LoopbackConfig {
            port: rx.port(),
            per_worker_mbps,
            total_bytes: u64::MAX,
            max_workers: 16,
        })
    }

    #[test]
    fn throttle_limits_one_worker() {
        let rx = Receiver::start().unwrap();
        let tx = engine(&rx, 80.0); // 10 MB/s
        tx.sample();
        std::thread::sleep(Duration::from_millis(600));
        let m = tx.sample();
        // One worker at 80 Mbps: allow generous slack for scheduling.
        assert!(
            (40.0..140.0).contains(&m.aggregate_mbps),
            "got {} Mbps",
            m.aggregate_mbps
        );
        tx.shutdown();
    }

    #[test]
    fn more_workers_scale_throughput() {
        let rx = Receiver::start().unwrap();
        let tx = engine(&rx, 40.0);
        tx.apply_settings(TransferSettings::with_concurrency(1));
        std::thread::sleep(Duration::from_millis(300));
        tx.sample();
        std::thread::sleep(Duration::from_millis(700));
        let one = tx.sample().aggregate_mbps;

        tx.apply_settings(TransferSettings::with_concurrency(6));
        std::thread::sleep(Duration::from_millis(300));
        tx.sample();
        std::thread::sleep(Duration::from_millis(700));
        let six = tx.sample().aggregate_mbps;
        assert!(six > 2.5 * one, "concurrency did not scale: {one} -> {six}");
        tx.shutdown();
    }

    #[test]
    fn byte_budget_completes() {
        let rx = Receiver::start().unwrap();
        let tx = LoopbackTransfer::start(LoopbackConfig {
            port: rx.port(),
            per_worker_mbps: 800.0,
            total_bytes: 2_000_000,
            max_workers: 4,
        });
        tx.apply_settings(TransferSettings::with_concurrency(2));
        for _ in 0..200 {
            if tx.is_complete() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(tx.is_complete());
        // Sent within one chunk of the budget.
        assert!(tx.sent_bytes() >= 1_900_000 && tx.sent_bytes() <= 2_100_000);
        tx.shutdown();
    }

    #[test]
    fn peek_rate_tracks_activity_independently_of_sample() {
        let rx = Receiver::start().unwrap();
        let tx = engine(&rx, 80.0);
        tx.peek_rate();
        std::thread::sleep(Duration::from_millis(400));
        let peek = tx.peek_rate();
        assert!(peek > 0.0, "peek {peek}");
        // Peeking must not reset the sample window.
        std::thread::sleep(Duration::from_millis(300));
        let m = tx.sample();
        assert!(
            m.interval_s > 0.6,
            "sample window was disturbed: {}",
            m.interval_s
        );
        tx.shutdown();
    }

    #[test]
    fn shrinking_pool_joins_workers() {
        let rx = Receiver::start().unwrap();
        let tx = engine(&rx, 40.0);
        tx.apply_settings(TransferSettings::with_concurrency(8));
        tx.apply_settings(TransferSettings::with_concurrency(2));
        assert_eq!(tx.settings().concurrency, 2);
        tx.shutdown();
    }

    #[test]
    fn killed_connections_mid_transfer_recover_and_complete() {
        let rx = Receiver::start().unwrap();
        // ~8 Mbps × 3 workers = 3 MB/s, so 6 MB takes ~2 s: plenty of
        // transfer left when the connections are cut.
        let tx = LoopbackTransfer::start(LoopbackConfig {
            port: rx.port(),
            per_worker_mbps: 8.0,
            total_bytes: 6_000_000,
            max_workers: 4,
        });
        tx.apply_settings(TransferSettings::with_concurrency(3));
        std::thread::sleep(Duration::from_millis(300));
        assert!(rx.kill_one_connection(), "no live connection to kill");
        assert!(rx.kill_one_connection(), "only one connection was live");
        for _ in 0..600 {
            if tx.is_complete() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        // The harness survived the faults: transfer ran to completion and
        // the recovery counters show the reconnections.
        assert!(tx.is_complete(), "transfer hung after connection kills");
        let stats = tx.recovery_stats();
        assert!(
            stats.reconnects >= 1,
            "no reconnect recorded after kills: {stats:?}"
        );
        tx.shutdown();
    }

    /// Retiring a worker is not a fault, even one retired before its first
    /// connect returned (back-to-back resizes do that on every shrink that
    /// follows a grow); a connection cut with no listener left to reconnect
    /// to still is.
    #[test]
    fn only_workers_nobody_retired_count_as_deaths() {
        let rx = Receiver::start().unwrap();
        let tx = engine(&rx, 40.0);
        for i in 0..20 {
            let cc = if i % 2 == 0 { 6 } else { 1 };
            tx.apply_settings(TransferSettings::with_concurrency(cc));
        }
        tx.shutdown();
        assert_eq!(tx.recovery_stats().worker_deaths, 0, "healthy resizes");

        let mut rx = Receiver::start().unwrap();
        let tx = engine(&rx, 40.0);
        std::thread::sleep(Duration::from_millis(200));
        rx.shutdown();
        assert!(rx.kill_one_connection(), "no live connection to kill");
        for _ in 0..500 {
            if tx.alive_workers() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(tx.recovery_stats().worker_deaths, 1, "cut, and no way back");
        tx.shutdown();
    }

    #[test]
    fn parallelism_change_reconnects() {
        let rx = Receiver::start().unwrap();
        let tx = engine(&rx, 40.0);
        tx.apply_settings(TransferSettings {
            concurrency: 2,
            parallelism: 3,
            pipelining: 1,
        });
        std::thread::sleep(Duration::from_millis(200));
        tx.sample();
        std::thread::sleep(Duration::from_millis(300));
        let m = tx.sample();
        assert!(m.aggregate_mbps > 0.0);
        tx.shutdown();
    }
}
