//! Multi-parameter optimization (§4.4): tuning concurrency, parallelism
//! and pipelining together with conjugate gradient descent and the Eq 7
//! utility — compared with concurrency-only tuning — for the paper's
//! *small* (1 KiB–10 MiB files) dataset, where command pipelining is the
//! difference between wasting and using the WAN.
//!
//! ```text
//! cargo run --release --example multiparameter
//! ```

use falcon_repro::core::{FalconAgent, SearchBounds};
use falcon_repro::sim::{Environment, Simulation};
use falcon_repro::transfer::dataset::Dataset;
use falcon_repro::transfer::harness::SimHarness;
use falcon_repro::transfer::runner::{AgentPlan, Runner, Tuner};

fn run(tuner: Box<dyn Tuner>, label: &str) {
    let mut harness = SimHarness::new(Simulation::new(Environment::stampede2_comet(), 21));
    let dataset = Dataset::small(5);
    let total_bits = dataset.total_bytes() as f64 * 8.0;
    let horizon = 900.0;
    let trace = Runner::default().run(
        &mut harness,
        vec![AgentPlan::at_start(tuner, dataset)],
        horizon,
    );
    let final_settings = trace
        .window(0, f64::NEG_INFINITY, f64::INFINITY)
        .last()
        .map(|p| p.settings)
        .expect("no trace points");
    let duration = trace.completed_at[0].unwrap_or(horizon);
    println!(
        "{label:<22} whole-transfer {:>6.2} Gbps (done in {duration:>5.0} s)   final settings: {final_settings}",
        total_bits / duration / 1e9,
    );
}

fn main() {
    println!("dataset: small (1 KiB - 10 MiB files, 120 GiB), Stampede2-Comet (60 ms WAN)\n");
    run(
        Box::new(FalconAgent::gradient_descent(64)),
        "falcon (cc only)",
    );
    run(
        Box::new(FalconAgent::multi_parameter(SearchBounds::multi_parameter(
            64, 8, 32,
        ))),
        "falcon_mp (cc, p, pp)",
    );
    println!("\npipelining hides the per-file control round trips that dominate small-file WAN transfers.");
}
