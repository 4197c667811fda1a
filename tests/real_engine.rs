//! Integration tests against the real loopback socket engine: Falcon
//! tuning genuine TCP transfers end to end (sender-limited regime, loss
//! identically zero, Eq 4's concurrency regret does all the limiting).

use std::net::TcpListener;
use std::time::{Duration, Instant};

use falcon_repro::core::{FalconAgent, ProbeMetrics, TransferSettings};
use falcon_repro::net::{LoopbackConfig, LoopbackTransfer, NetHarness, Receiver};
use falcon_repro::trace::{TraceEvent, TraceLog, TraceRecord, Tracer};
use falcon_repro::transfer::dataset::Dataset;
use falcon_repro::transfer::harness::TransferHarness;
use falcon_repro::transfer::runner::{AgentPlan, FixedTuner, Runner, Tuner};

/// Run `tuner` on one open-ended transfer for `duration_s`; returns the
/// run's log.
fn run_logged(h: &mut impl TransferHarness, tuner: Box<dyn Tuner>, duration_s: f64) -> TraceLog {
    let runner = Runner {
        tracer: Tracer::recording(),
    };
    let plan = AgentPlan::at_start(tuner, Dataset::uniform_1gb(u64::MAX));
    runner.run(h, vec![plan], duration_s);
    runner.tracer.take_log()
}

/// Run Falcon-GD against a live loopback transfer for `probes` runner
/// probes of 400 ms (and a hair more so rounding keeps the last one);
/// returns the concurrency each probe measured.
fn drive_real(per_worker_mbps: f64, probes: usize) -> Vec<u32> {
    let mut h = NetHarness::start(per_worker_mbps, 16, 0.4).expect("receiver");
    let gd = Box::new(FalconAgent::gradient_descent(16));
    let log = run_logged(&mut h, gd, probes as f64 * 0.4 * (1.0 + 1e-9));
    let probe_cc = |r: &TraceRecord| match r.event {
        TraceEvent::Probe { concurrency, .. } => Some(concurrency),
        _ => None,
    };
    log.records.iter().filter_map(probe_cc).collect()
}

#[test]
fn gd_scales_up_a_real_transfer() {
    let trace = drive_real(30.0, 18);
    let peak = *trace.iter().max().unwrap();
    assert!(peak >= 5, "search never scaled up: {trace:?}");
}

#[test]
fn concurrency_regret_bounds_a_real_transfer() {
    // With no loss signal on loopback, only Eq 4's Kⁿ term limits the
    // search: it must not pin at the maximum forever.
    let trace = drive_real(30.0, 24);
    let tail = &trace[trace.len() - 6..];
    assert!(
        tail.iter().any(|&c| c < 16),
        "search stuck at the bound: {trace:?}"
    );
}

/// [`NetHarness`] through a destination outage: once `cut_s` has passed,
/// the receiver stops listening and cuts every connection, so each worker
/// dies when its reconnects fail. The first restart the watchdog attempts
/// finds a listener back on the same port.
struct Outage {
    net: NetHarness,
    cut_s: f64,
    relistened: bool,
}

impl TransferHarness for Outage {
    fn join(&mut self, dataset: Dataset) -> usize {
        self.net.join(dataset)
    }
    fn apply(&mut self, agent: usize, settings: TransferSettings) {
        self.net.apply(agent, settings);
    }
    fn advance(&mut self, dt_s: f64) {
        let before = self.net.time_s();
        self.net.advance(dt_s);
        if before < self.cut_s && self.net.time_s() >= self.cut_s {
            let rx = self.net.receiver_mut();
            rx.shutdown();
            while rx.kill_one_connection() {}
        }
    }
    fn sample(&mut self, agent: usize) -> ProbeMetrics {
        self.net.sample(agent)
    }
    fn instantaneous_mbps(&self, agent: usize) -> f64 {
        self.net.instantaneous_mbps(agent)
    }
    fn current_settings(&self, agent: usize) -> TransferSettings {
        self.net.current_settings(agent)
    }
    fn is_complete(&self, agent: usize) -> bool {
        self.net.is_complete(agent)
    }
    fn leave(&mut self, agent: usize) {
        self.net.leave(agent);
    }
    fn time_s(&self) -> f64 {
        self.net.time_s()
    }
    fn sample_interval_s(&self) -> f64 {
        self.net.sample_interval_s()
    }
    fn max_concurrency(&self) -> u32 {
        self.net.max_concurrency()
    }
    fn is_attached(&self, agent: usize) -> bool {
        self.net.is_attached(agent)
    }
    fn restart(&mut self, agent: usize) -> bool {
        if !self.relistened {
            self.relistened = true;
            let port = self.net.receiver_mut().port();
            let listener = TcpListener::bind(("127.0.0.1", port)).expect("listen again");
            // Lives until the test process exits: accept and drain.
            std::thread::spawn(move || {
                for mut conn in listener.incoming().flatten() {
                    std::thread::spawn(move || std::io::copy(&mut conn, &mut std::io::sink()));
                }
            });
        }
        self.net.restart(agent)
    }
}

#[test]
fn watchdog_restarts_a_real_transfer_after_every_connection_dies() {
    let mut h = Outage {
        net: NetHarness::start(40.0, 4, 0.1).expect("receiver"),
        cut_s: 0.05,
        relistened: false,
    };
    let fixed = Box::new(FixedTuner {
        settings: TransferSettings::with_concurrency(3),
        name: "fixed:3".into(),
    });
    let wall = Instant::now();
    // The cut lands at the first wakeup (0.03 s), the workers are dead
    // within 0.7 s of it, the first restart follows 1 s after the detach,
    // and `restarted` at the next whole-second wakeup: 2 s, then a probe
    // at 2.1 s.
    let log = run_logged(&mut h, fixed, 2.2);
    assert!(
        wall.elapsed() < Duration::from_secs(6),
        "run overran its deadline: {:?}",
        wall.elapsed()
    );
    assert!(
        (h.time_s() - 2.2).abs() < 1e-9,
        "run ended at {} s",
        h.time_s()
    );

    let recovery = |want: &str| {
        log.records
            .iter()
            .position(|r| matches!(&r.event, TraceEvent::Recovery { action, .. } if action == want))
    };
    let actions: Vec<String> = log
        .records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::Recovery { action, .. } => Some(format!("{action}@{:.2}", r.t_s)),
            _ => None,
        })
        .collect();
    let detached = recovery("detached").unwrap_or_else(|| panic!("no detach: {actions:?}"));
    let attempt = recovery("restart_attempt").unwrap_or_else(|| panic!("{actions:?}"));
    let restarted = recovery("restarted").unwrap_or_else(|| panic!("{actions:?}"));
    assert!(detached < attempt && attempt < restarted, "{actions:?}");
    let moved_again = log.records[restarted..].iter().any(
        |r| matches!(r.event, TraceEvent::Probe { throughput_mbps, .. } if throughput_mbps > 0.0),
    );
    assert!(moved_again, "no bytes after the restart: {actions:?}");
}

#[test]
fn write_limited_destination_backpressures_real_transfer() {
    // The destination drains each connection at 12 Mbps (a slow "disk"):
    // even with generous sender-side budgets the transfer is capped by the
    // receiver — the live version of the paper's HPCLab write bottleneck.
    let receiver = Receiver::start_throttled(12.0).expect("receiver");
    let transfer = LoopbackTransfer::start(LoopbackConfig {
        port: receiver.port(),
        per_worker_mbps: 200.0, // sender could go much faster
        total_bytes: u64::MAX,
        max_workers: 4,
    });
    transfer.apply_settings(falcon_repro::core::TransferSettings::with_concurrency(2));
    std::thread::sleep(std::time::Duration::from_millis(500));
    transfer.sample();
    std::thread::sleep(std::time::Duration::from_millis(1000));
    let m = transfer.sample();
    // 2 connections × 12 Mbps ≈ 24 Mbps; allow buffer slack, but far below
    // the 400 Mbps the sender budget would permit.
    assert!(
        m.aggregate_mbps < 150.0,
        "backpressure missing: {} Mbps",
        m.aggregate_mbps
    );
    transfer.shutdown();
}

#[test]
fn real_transfer_moves_more_bytes_with_more_workers() {
    let receiver = Receiver::start().expect("receiver");
    let mk = |workers: u32| {
        let t = LoopbackTransfer::start(LoopbackConfig {
            port: receiver.port(),
            per_worker_mbps: 40.0,
            total_bytes: u64::MAX,
            max_workers: 16,
        });
        t.apply_settings(falcon_repro::core::TransferSettings::with_concurrency(
            workers,
        ));
        std::thread::sleep(std::time::Duration::from_millis(300));
        t.sample();
        std::thread::sleep(std::time::Duration::from_millis(700));
        let mbps = t.sample().aggregate_mbps;
        t.shutdown();
        mbps
    };
    let one = mk(1);
    let eight = mk(8);
    assert!(
        eight > 3.0 * one,
        "8 workers should far outpace 1: {one:.0} vs {eight:.0}"
    );
}
