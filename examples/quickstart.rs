//! Quickstart: tune a single file transfer with Falcon's Gradient Descent.
//!
//! Simulates moving 200 × 1 GB files over the XSEDE testbed (10 Gbps WAN,
//! Lustre read-limited). The experiment runner starts Falcon at
//! concurrency 2, probes a setting every 5 seconds, and Falcon converges to
//! the ~10 concurrent transfers that saturate the parallel file system.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use falcon_repro::core::FalconAgent;
use falcon_repro::sim::{Environment, Simulation};
use falcon_repro::trace::{TraceEvent, Tracer};
use falcon_repro::transfer::dataset::Dataset;
use falcon_repro::transfer::harness::{SimHarness, TransferHarness};
use falcon_repro::transfer::runner::{AgentPlan, Runner};

fn main() {
    let env = Environment::xsede();
    println!(
        "environment: {} (path capacity {:.1} Gbps, saturates at ~{} concurrent transfers)",
        env.name,
        env.path_capacity_mbps() / 1000.0,
        env.saturating_concurrency()
    );

    let mut harness = SimHarness::new(Simulation::new(env, 42));
    let agent = FalconAgent::gradient_descent(harness.max_concurrency());
    let runner = Runner {
        tracer: Tracer::recording(),
    };
    let plan = AgentPlan::at_start(Box::new(agent), Dataset::uniform_1gb(200));
    let trace = runner.run(&mut harness, vec![plan], 600.0);

    println!("{:>8}  {:>12}  {:>12}", "time_s", "setting", "gbps");
    for r in runner.tracer.take_log().records {
        if let TraceEvent::Probe {
            throughput_mbps,
            concurrency,
            ..
        } = r.event
        {
            println!(
                "{:>8.1}  {:>12}  {:>12.2}",
                r.t_s,
                format!("cc={concurrency}"),
                throughput_mbps / 1000.0
            );
        }
    }
    match trace.completed_at[0] {
        Some(t) => println!("transfer complete at t={t:.1}s"),
        None => println!("time budget exhausted"),
    }
}
