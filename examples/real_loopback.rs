//! Falcon against real sockets: tune a live TCP loopback transfer.
//!
//! A receiver drains connections on 127.0.0.1; the sender runs a pool of
//! worker threads, each token-bucket-throttled to 60 Mbps (playing the
//! per-process cap of a parallel file system). The experiment runner drives
//! Falcon's Gradient Descent over it exactly as over the simulator: it
//! discards each probe's warm-up and feeds the rest to the search, which
//! grows the pool until the concurrency regret outweighs the gain.
//!
//! Runs ~25 seconds of wall-clock time.
//!
//! ```text
//! cargo run --release --example real_loopback
//! ```

use falcon_repro::core::FalconAgent;
use falcon_repro::net::NetHarness;
use falcon_repro::trace::{TraceEvent, Tracer};
use falcon_repro::transfer::dataset::Dataset;
use falcon_repro::transfer::harness::TransferHarness;
use falcon_repro::transfer::runner::{AgentPlan, Runner};

fn main() -> std::io::Result<()> {
    let mut harness = NetHarness::start(60.0, 24, 1.2)?;
    let port = harness.receiver_mut().port();
    println!("receiver listening on 127.0.0.1:{port}");
    let runner = Runner {
        tracer: Tracer::recording(),
    };
    let gd = Box::new(FalconAgent::gradient_descent(24));
    let plan = AgentPlan::at_start(gd, Dataset::uniform_1gb(u64::MAX));
    // 20 probes of 1.2 s, and a hair more so rounding keeps the last one.
    runner.run(&mut harness, vec![plan], 20.0 * 1.2 * (1.0 + 1e-9));
    harness.leave(0);

    println!("{:>8}  {:>6}  {:>12}", "time_s", "cc", "mbps");
    for r in runner.tracer.take_log().records {
        if let TraceEvent::Probe {
            throughput_mbps,
            concurrency,
            ..
        } = r.event
        {
            println!("{:>8.1}  {concurrency:>6}  {throughput_mbps:>12.1}", r.t_s);
        }
    }
    println!(
        "\nfinal: {} ({} MB moved through real sockets)",
        harness.current_settings(0),
        harness.receiver_mut().total_bytes() / 1_000_000
    );
    Ok(())
}
