//! `bench-layers`: the traced half of the repo benchmark.
//!
//! Re-composes one workload in-process from the product crates' public
//! seams (all of them behind `seams.rs`), records a span per call into each
//! layer, and prints every per-layer metric. Layers are crates. `*_s` are
//! host seconds and counts are exact; `*_est` shares are a per-op cost
//! measured by a replay driver times an exact op count, because the scale
//! campaign exposes no inner seam yet.
//!
//! Started by `bench-e2e` with the same generated inputs the CLI child got:
//!   bench-layers --workload W --cli-wall-s S --cli-stdout FILE --out FILE
//!                [--smoke] [INPUT.ini ...]

mod seams;
mod spans;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use spans::Recorder;

/// Every per-layer metric: `(name, unit, better)`. `BENCHMARK.json`'s
/// `per_layer` is this table (a test keeps the two in step). A metric its workload does not exercise reads 0.
const METRICS: &[(&str, &str, &str)] = &[
    // falcon-cli
    ("cli.parse_s", "s", "lower"),
    ("cli.render_s", "s", "lower"),
    ("cli.process_overhead_s", "s", "lower"),
    // falcon-transfer
    ("transfer.run_s", "s", "lower"),
    ("transfer.self_s", "s", "lower"),
    ("transfer.wakeups", "count", "lower"),
    // falcon-sim, stepping
    ("sim.advance_s", "s", "lower"),
    ("sim.advance_calls", "count", "lower"),
    ("sim.advance_p50_us", "us", "lower"),
    ("sim.advance_p99_us", "us", "lower"),
    ("sim.sample_s", "s", "lower"),
    ("sim.apply_s", "s", "lower"),
    ("sim.join_leave_s", "s", "lower"),
    ("sim.steps", "count", "lower"),
    ("sim.alloc_runs", "count", "lower"),
    ("sim.alloc_skips", "count", "higher"),
    ("sim.alloc_skip_ratio", "ratio", "higher"),
    // falcon-sim, incremental allocator and event queue
    ("sim.alloc.solve_ns", "ns", "lower"),
    ("sim.alloc.resolved_per_solve", "count", "lower"),
    ("sim.alloc.bytes_per_stream", "bytes", "lower"),
    ("sim.alloc.share_est", "ratio", "lower"),
    ("sim.queue.ns_per_event", "ns", "lower"),
    ("sim.queue.share_est", "ratio", "lower"),
    // falcon-core (HC/GD/MP decisions)
    ("core.decide_s", "s", "lower"),
    ("core.decide_calls", "count", "lower"),
    ("core.decide_p50_us", "us", "lower"),
    ("core.decide_p99_us", "us", "lower"),
    // falcon-gp (+ falcon-core's BO driver)
    ("gp.decide_s", "s", "lower"),
    ("gp.decide_calls", "count", "lower"),
    ("gp.decide_p50_us", "us", "lower"),
    ("gp.decide_p99_us", "us", "lower"),
    // falcon-rl
    ("rl.decide_s", "s", "lower"),
    ("rl.decide_calls", "count", "lower"),
    ("rl.decide_p50_us", "us", "lower"),
    ("rl.observe_ns", "ns", "lower"),
    ("rl.share_est", "ratio", "lower"),
    // falcon-baselines
    ("baselines.decide_s", "s", "lower"),
    ("baselines.decide_calls", "count", "lower"),
    // falcon-fleet (scale engine)
    ("fleet.campaign_s_1t", "s", "lower"),
    ("fleet.campaign_s_nt", "s", "lower"),
    ("fleet.ns_per_transfer", "ns", "lower"),
    ("fleet.solves", "count", "lower"),
    ("fleet.probes", "count", "lower"),
    ("fleet.peak_active", "count", "lower"),
    ("fleet.state_bytes_per_transfer", "bytes", "lower"),
    ("fleet.self_share_est", "ratio", "lower"),
    // falcon-par
    ("par.speedup_nt", "ratio", "higher"),
    // falcon-trace
    ("trace.record_overhead_pct", "%", "lower"),
    ("trace.events", "count", "lower"),
    ("trace.jsonl_bytes", "bytes", "lower"),
    ("trace.export_s", "s", "lower"),
    // falcon-net (host loopback interface, not a link)
    ("net.bulk_gbps_cc1", "Gbit/s", "higher"),
    ("net.bulk_gbps_ccn", "Gbit/s", "higher"),
    ("net.cpu_s_per_gb", "s/GB", "lower"),
    ("net.apply_p50_us", "us", "lower"),
    ("net.apply_max_us", "us", "lower"),
    ("net.sample_us", "us", "lower"),
    ("net.first_byte_ms", "ms", "lower"),
    ("net.shutdown_ms", "ms", "lower"),
    ("net.throttle_accuracy", "ratio", "higher"),
    ("net.tuner_overhead_pct", "%", "lower"),
    ("net.connect_retries", "count", "lower"),
    ("net.reconnects", "count", "lower"),
    ("net.worker_deaths", "count", "lower"),
    // the benchmark itself: validity of the traced run
    ("bench.span_overhead_pct", "%", "lower"),
    ("bench.layers_vs_e2e_ratio", "ratio", "lower"),
];

/// The tuner decision spans, one per tuner-owning layer.
const DECIDE_SPANS: [&str; 4] = ["core.decide", "gp.decide", "rl.decide", "baselines.decide"];

/// Metric values of one traced run; unset metrics read 0.
#[derive(Default)]
struct Report(BTreeMap<&'static str, f64>);

impl Report {
    fn set(&mut self, name: &str, value: f64) {
        let (known, ..) = METRICS
            .iter()
            .find(|(n, ..)| *n == name)
            .unwrap_or_else(|| panic!("bug: metric {name} is not in the METRICS table"));
        self.0.insert(known, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Total, count and whichever per-call percentiles the table lists for
    /// the spans named `span` (`sim.advance` → `sim.advance_s`, `_calls`…).
    fn set_calls(&mut self, all: &[spans::Span], span: &str) {
        let c = spans::calls(all, span);
        if c.count == 0 {
            return;
        }
        self.set(&format!("{span}_s"), c.total_s);
        self.set(&format!("{span}_calls"), c.count as f64);
        for (suffix, v) in [("_p50_us", c.p50_us), ("_p99_us", c.p99_us)] {
            let name = format!("{span}{suffix}");
            if METRICS.iter().any(|(n, ..)| *n == name) {
                self.set(&name, v);
            }
        }
    }
}

struct Args {
    workload: String,
    cli_wall_s: f64,
    /// What the CLI child printed for the same inputs.
    cli_stdout: Vec<u8>,
    out: String,
    smoke: bool,
    files: Vec<String>,
}

/// The traced run must time the computation the CLI child ran.
fn same_stdout(a: &Args, stdout: &str) -> Result<(), String> {
    if stdout.as_bytes() == a.cli_stdout {
        Ok(())
    } else {
        Err(format!(
            "{}: the in-process run printed different bytes than the CLI child",
            a.workload
        ))
    }
}

/// The `key = value` lines of a manifest's `[profile.release]` table.
fn release_profile(manifest: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(manifest).map_err(|e| format!("reading {manifest}: {e}"))?;
    let mut lines: Vec<String> = text
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| {
            l.split('#')
                .next()
                .unwrap_or("")
                .split_whitespace()
                .collect::<String>()
        })
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort();
    Ok(lines)
}

fn read_inputs(files: &[String]) -> Result<(Vec<seams::Input>, f64), String> {
    let mut parse_s = 0.0;
    let mut inputs = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("reading {f}: {e}"))?;
        let (input, s) = seams::Input::parse(&text)?;
        parse_s += s;
        inputs.push(input);
    }
    if inputs.is_empty() {
        return Err("no input file given".into());
    }
    Ok((inputs, parse_s))
}

/// `scenario-long` and `fleet-bo`: the runner-driven workloads.
fn runner_workload(a: &Args, r: &mut Report) -> Result<Vec<spans::Span>, String> {
    let agents = a.workload == "scenario-long";
    let (inputs, parse_s) = read_inputs(&a.files)?;
    r.set("cli.parse_s", parse_s);

    // Undecorated, through the CLI's own functions.
    let (mut stdout, mut plain_s, mut render_s) = (String::new(), 0.0, 0.0);
    for input in &inputs {
        if agents {
            let (text, run_s, r_s) = seams::cli_equivalent(input)?;
            stdout.push_str(&text);
            plain_s += run_s;
            render_s += r_s;
        } else {
            let t0 = Instant::now();
            stdout.push_str(&seams::cli_stdout(input)?);
            plain_s += t0.elapsed().as_secs_f64();
        }
    }
    same_stdout(a, &stdout)?;
    r.set("cli.render_s", render_s);
    r.set(
        "cli.process_overhead_s",
        a.cli_wall_s - (parse_s + plain_s + render_s),
    );

    // Decorated: the same composition behind timing decorators.
    let rec = Recorder::new();
    let (mut steps, mut alloc_runs, mut alloc_skips) = (0, 0, 0);
    let t0 = Instant::now();
    for input in &inputs {
        if let Some(c) = seams::decorated_run(input, &rec)? {
            steps += c.steps;
            alloc_runs += c.alloc_runs;
            alloc_skips += c.alloc_skips;
        }
    }
    let decorated_s = t0.elapsed().as_secs_f64();
    r.set(
        "bench.span_overhead_pct",
        100.0 * (decorated_s - plain_s) / plain_s,
    );
    r.set("bench.layers_vs_e2e_ratio", decorated_s / a.cli_wall_s);

    let all = rec.spans();
    let decisions = DECIDE_SPANS
        .iter()
        .map(|n| spans::calls(&all, n).count)
        .sum::<u64>();
    if agents {
        // Recorded, as `falcon scenario --trace` runs it: the tracer's own
        // cost, the simulator's step counters, and a cross-check that the
        // decorated run took exactly the recorded run's decisions.
        let rec_run = seams::recorded_run(&inputs[0])?;
        if rec_run.probes != decisions {
            return Err(format!(
                "decorated run took {decisions} tuner decisions, the CLI's traced run {}",
                rec_run.probes
            ));
        }
        r.set(
            "trace.record_overhead_pct",
            100.0 * (rec_run.wall_s - plain_s) / plain_s,
        );
        r.set("trace.events", rec_run.events as f64);
        r.set("trace.jsonl_bytes", rec_run.jsonl_bytes as f64);
        r.set("trace.export_s", rec_run.export_s);
        let c = rec_run.sim;
        (steps, alloc_runs, alloc_skips) = (c.steps, c.alloc_runs, c.alloc_skips);
    }
    r.set("sim.steps", steps as f64);
    r.set("sim.alloc_runs", alloc_runs as f64);
    r.set("sim.alloc_skips", alloc_skips as f64);
    r.set(
        "sim.alloc_skip_ratio",
        alloc_skips as f64 / (alloc_runs + alloc_skips).max(1) as f64,
    );

    let agg = spans::aggregate(&all);
    let run = agg
        .get(&("transfer.run", ""))
        .ok_or("no transfer.run span recorded")?;
    r.set("transfer.run_s", run.total_s);
    r.set("transfer.self_s", run.self_s);
    r.set_calls(&all, "sim.advance");
    r.set("transfer.wakeups", r.get("sim.advance_calls"));
    for (metric, span) in [
        ("sim.sample_s", "sim.sample"),
        ("sim.apply_s", "sim.apply"),
        ("sim.join_leave_s", "sim.join_leave"),
    ] {
        r.set(metric, spans::calls(&all, span).total_s);
    }
    for span in DECIDE_SPANS {
        r.set_calls(&all, span);
    }
    Ok(all)
}

/// `campaign-100k` and `campaign-rl`: the scale engine.
fn campaign_workload(a: &Args, r: &mut Report) -> Result<(), String> {
    let (inputs, parse_s) = read_inputs(&a.files)?;
    r.set("cli.parse_s", parse_s);
    let campaign = seams::Campaign::from_input(&inputs[0])?;
    let nt = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (fig, s_nt) = campaign.run(nt);
    same_stdout(a, &fig.stdout)?;
    let (_, s_1t) = campaign.run(1);
    r.set("cli.process_overhead_s", a.cli_wall_s - parse_s - s_nt);
    r.set("bench.layers_vs_e2e_ratio", s_nt / a.cli_wall_s);
    r.set("fleet.campaign_s_1t", s_1t);
    r.set("fleet.campaign_s_nt", s_nt);
    r.set(
        "fleet.ns_per_transfer",
        s_1t * 1e9 / fig.transfers.max(1) as f64,
    );
    r.set("fleet.solves", fig.solves as f64);
    r.set("fleet.probes", fig.probes as f64);
    r.set("fleet.peak_active", fig.peak_active as f64);
    r.set(
        "fleet.state_bytes_per_transfer",
        fig.state_bytes_per_transfer,
    );
    r.set("par.speedup_nt", s_1t / s_nt);

    // Replays at the campaign's own operating point. One thread's wall is
    // the campaign's CPU cost, the base of every share below.
    let budget = Duration::from_millis(if a.smoke { 100 } else { 700 });
    let alloc = seams::replay_allocator(&campaign, &fig);
    // A shard queues all its arrivals up front and drains them, so its mean
    // depth is half of them plus its live departures and probes.
    let shards = fig.shards.max(1) as usize;
    let depth = fig.transfers as usize / shards / 2 + (fig.mean_live as usize) / shards;
    let queue_ns = seams::replay_queue(depth, budget);
    let base_ns = s_1t * 1e9;
    let alloc_share = alloc.ns_per_solve * fig.solves as f64 / base_ns;
    // Every solve follows one popped event (and at most one push).
    let queue_share = queue_ns * fig.solves as f64 / base_ns;
    r.set("sim.alloc.solve_ns", alloc.ns_per_solve);
    r.set("sim.alloc.resolved_per_solve", fig.resolved_per_solve);
    r.set("sim.alloc.bytes_per_stream", alloc.bytes_per_stream);
    r.set("sim.alloc.share_est", alloc_share);
    r.set("sim.queue.ns_per_event", queue_ns);
    r.set("sim.queue.share_est", queue_share);
    println!(
        "{:<14} replay of one shard: {:.1} mean live streams, {:.2} re-solved/solve (campaign {:.2}) x {} solves; queue depth {depth}",
        a.workload, alloc.mean_live, alloc.resolved_per_solve, fig.resolved_per_solve, fig.solves
    );
    let mut rl_share = 0.0;
    if fig.probes > 0 {
        let per_transfer = (fig.probes / fig.transfers.max(1)).max(1) as usize;
        let (observe_ns, p50_us) =
            seams::replay_rl(campaign.max_concurrency(), per_transfer, budget);
        rl_share = observe_ns * fig.probes as f64 / base_ns;
        r.set("rl.observe_ns", observe_ns);
        r.set("rl.decide_calls", fig.probes as f64);
        r.set("rl.decide_s", observe_ns * fig.probes as f64 / 1e9);
        r.set("rl.decide_p50_us", p50_us);
        r.set("rl.share_est", rl_share);
        println!(
            "{:<14} replay: {per_transfer} observes per agent x {} probes",
            a.workload, fig.probes
        );
    }
    r.set(
        "fleet.self_share_est",
        1.0 - alloc_share - queue_share - rl_share,
    );
    Ok(())
}

/// `loopback`: the real-socket engine, driven directly.
fn loopback_workload(a: &Args, r: &mut Report) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
    let fig = seams::net_figures(nproc, if a.smoke { 0.05 } else { 1.0 })?;
    let mut apply = fig.apply_us.clone();
    apply.sort_by(f64::total_cmp);
    r.set("net.bulk_gbps_cc1", fig.bulk_gbps_cc1);
    r.set("net.bulk_gbps_ccn", fig.bulk_gbps_ccn);
    r.set("net.cpu_s_per_gb", fig.cpu_s_per_gb);
    r.set("net.apply_p50_us", apply[apply.len() / 2]);
    r.set("net.apply_max_us", apply[apply.len() - 1]);
    r.set("net.sample_us", fig.sample_us);
    r.set("net.first_byte_ms", fig.first_byte_ms);
    r.set("net.shutdown_ms", fig.shutdown_ms);
    r.set("net.throttle_accuracy", fig.throttle_accuracy);
    r.set("net.tuner_overhead_pct", fig.tuner_overhead_pct);
    r.set("net.connect_retries", fig.connect_retries as f64);
    r.set("net.reconnects", fig.reconnects as f64);
    r.set("net.worker_deaths", fig.worker_deaths as f64);
    Ok(())
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        cli_wall_s: 0.0,
        cli_stdout: Vec::new(),
        out: String::new(),
        smoke: false,
        files: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--cli-wall-s" => a.cli_wall_s = value()?.parse().map_err(|_| "bad --cli-wall-s")?,
            "--cli-stdout" => {
                let path = value()?;
                a.cli_stdout = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
            }
            "--out" => a.out = value()?.clone(),
            "--smoke" => a.smoke = true,
            f if f.starts_with("--") => return Err(format!("unknown flag {f}")),
            f => a.files.push(f.to_string()),
        }
    }
    if a.workload.is_empty() || a.out.is_empty() || a.cli_wall_s.is_nan() || a.cli_wall_s <= 0.0 {
        return Err("usage: bench-layers --workload W --cli-wall-s S --cli-stdout FILE --out FILE [--smoke] [INPUT.ini ...]".into());
    }
    Ok(a)
}

fn run(a: &Args) -> Result<(), String> {
    // Same optimisation settings as the binary the CLI child ran.
    let (root, own) = (
        release_profile("Cargo.toml")?,
        release_profile("bench/layers/Cargo.toml")?,
    );
    if root != own || root.is_empty() {
        return Err(format!(
            "[profile.release] differs: root {root:?}, bench/layers {own:?}"
        ));
    }
    let mut report = Report::default();
    let mut all_spans = Vec::new();
    match a.workload.as_str() {
        "scenario-long" | "fleet-bo" => all_spans = runner_workload(a, &mut report)?,
        "campaign-100k" | "campaign-rl" => campaign_workload(a, &mut report)?,
        "loopback" => loopback_workload(a, &mut report)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    std::fs::write(&a.out, spans::to_json(&a.workload, &all_spans))
        .map_err(|e| format!("writing {}: {e}", a.out))?;
    for (name, unit, _) in METRICS {
        if let Some(v) = report.0.get(name) {
            println!("{:<14} {name:<30} {v:>16.4} {unit}", a.workload);
        }
    }
    let line: Vec<String> = METRICS
        .iter()
        .map(|(name, unit, _)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                report.get(name)
            )
        })
        .collect();
    println!("{{{}}}", line.join(","));
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = parse_args(&argv).and_then(|a| run(&a)) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in METRICS {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(["lower", "higher"].contains(better));
        }
        assert!(METRICS.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_exactly_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let section = text.split("\"per_layer\"").nth(1).expect("per_layer key");
        let listed: Vec<&str> = section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap())
            .collect();
        let table: Vec<&str> = METRICS.iter().map(|(n, ..)| *n).collect();
        assert_eq!(listed, table);
        for (name, unit, better) in METRICS {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(section.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn release_profile_matches_the_root_manifest() {
        let dir = env!("CARGO_MANIFEST_DIR");
        let root = release_profile(&format!("{dir}/../../Cargo.toml")).unwrap();
        let own = release_profile(&format!("{dir}/Cargo.toml")).unwrap();
        assert_eq!(root, own);
        assert_eq!(root, ["codegen-units=1", "lto=\"thin\""]);
    }

    #[test]
    fn report_rejects_unknown_metrics_and_defaults_to_zero() {
        let mut r = Report::default();
        r.set("sim.steps", 4.0);
        assert_eq!((r.get("sim.steps"), r.get("net.reconnects")), (4.0, 0.0));
        assert!(std::panic::catch_unwind(move || r.set("sim.stepz", 1.0)).is_err());
    }
}
