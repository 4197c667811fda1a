//! `bench-e2e`: the end-to-end half of the repo benchmark.
//!
//! Generates a workload's inputs from `--seed`, runs the real `falcon`
//! binary on them as guarded child processes (closed loop: one driver, one
//! child at a time), checks what they print, and reports *host* cost — wall
//! seconds, CPU seconds, peak RSS — never simulated statistics, which are
//! only hashed into a `model_digest`. With `--trace 1` it hands the same
//! inputs to `bench-layers` for the per-crate breakdown.
//!
//! Usage (normally through `bench/run.sh`):
//!   bench-e2e run --falcon BIN [--layers BIN] [--workload W] [--seed N]
//!                 [--seconds S] [--trace 0|1] [--smoke]
//!   bench-e2e compare A.json B.json

mod check;
mod child;
mod compare;
mod gen;
mod json;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use child::run_guarded;

/// Wall limit of one `falcon` child.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);
/// Wall limit of the whole `bench-layers` run of one workload.
const LAYERS_TIMEOUT: Duration = Duration::from_secs(150);
/// Set-ups per run: at least this many, and more (up to `MAX_SETUPS`)
/// until they have taken `SETUP_BUDGET` together, so that a set-up of a
/// few milliseconds is a median of many. `setup_s` is the median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 31;
const SETUP_BUDGET: Duration = Duration::from_millis(300);
const OUT_DIR: &str = "bench/out";

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    falcon: PathBuf,
    layers: Option<PathBuf>,
}

/// Median, range and count of one metric's per-rep values.
#[derive(Debug, Clone, Copy)]
struct Stat {
    median: f64,
    min: f64,
    max: f64,
    n: usize,
}

impl Stat {
    fn of(values: &[f64]) -> Stat {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        Stat {
            median,
            min: v[0],
            max: v[n - 1],
            n,
        }
    }
}

/// Attempt accounting shared by both halves: every child process is one
/// attempt; a non-zero exit, timeout, rlimit kill or output-check miss is
/// one failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, outcome: &Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            println!("FAILED {what}: {why}");
        }
    }
}

/// One pass over a plan's children (a single child for every workload but
/// `fleet-bo`, whose eight files are timed as a batch).
struct Rep {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    stdout: Vec<u8>,
    mb_moved: Option<f64>,
    ok: bool,
}

fn write_inputs(plan: &gen::Plan, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (name, text) in &plan.files {
        std::fs::write(dir.join(name), text)?;
    }
    Ok(())
}

/// `falcon` argv for one child: `@name` arguments become paths in `dir`.
fn child_argv(falcon: &Path, args: &[String], dir: &Path) -> Vec<String> {
    std::iter::once(falcon.display().to_string())
        .chain(args.iter().map(|a| match a.strip_prefix('@') {
            Some(name) => dir.join(name).display().to_string(),
            None => a.clone(),
        }))
        .collect()
}

fn run_rep(plan: &gen::Plan, dir: &Path, falcon: &Path, tally: &mut Tally) -> std::io::Result<Rep> {
    let mut rep = Rep {
        wall_s: 0.0,
        cpu_s: 0.0,
        peak_rss_mb: 0.0,
        stdout: Vec::new(),
        mb_moved: None,
        ok: true,
    };
    for (i, args) in plan.children.iter().enumerate() {
        let argv = child_argv(falcon, args, dir);
        let run = run_guarded(&argv, CHILD_TIMEOUT, &dir.join(format!("child-{i}.stderr")))?;
        let outcome = run
            .exited_cleanly()
            .and_then(|()| check::check(plan.expect, &run.stdout));
        rep.ok &= outcome.is_ok();
        if let Ok(checked) = &outcome {
            rep.mb_moved = checked.mb_moved;
        }
        tally.record(&argv[1..].join(" "), &outcome.map(|_| ()));
        rep.wall_s += run.wall_s;
        rep.cpu_s += run.cpu_s;
        rep.peak_rss_mb = rep.peak_rss_mb.max(run.peak_rss_mb);
        rep.stdout.extend_from_slice(&run.stdout);
    }
    Ok(rep)
}

/// The end-to-end result of one workload.
struct E2e {
    /// `(name, unit, stat)` in `BENCHMARK.json` order.
    metrics: Vec<(&'static str, &'static str, Stat)>,
    /// FNV-1a of one rep's stdout (simulated workloads only).
    model_digest: Option<u64>,
    /// Derived, ungated figures for the human table.
    info: Vec<(&'static str, &'static str, f64)>,
}

fn input_dir(workload: &str, o: &Opts) -> PathBuf {
    let smoke = if o.smoke { "-smoke" } else { "" };
    Path::new(OUT_DIR).join(format!("inputs-{workload}-seed{}{smoke}", o.seed))
}

fn plan_or_die(workload: &str, seed: u64, smoke: bool) -> gen::Plan {
    gen::plan(workload, seed, smoke).unwrap_or_else(|| {
        eprintln!(
            "error: unknown workload {workload:?} (expected one of {:?})",
            gen::WORKLOADS
        );
        std::process::exit(2);
    })
}

fn run_e2e(workload: &str, o: &Opts, tally: &mut Tally) -> std::io::Result<Option<E2e>> {
    let dir = input_dir(workload, o);
    let plan = plan_or_die(workload, o.seed, o.smoke);

    // Set-up: generate and write the inputs, then warm the binary with the
    // smoke-sized shape of the same workload, several times over.
    let mut setups = Vec::new();
    let setup_start = Instant::now();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setup_start.elapsed() < SETUP_BUDGET)
    {
        let t0 = Instant::now();
        let warm = plan_or_die(workload, o.seed, true);
        let warm_dir = dir.join("warm");
        write_inputs(&warm, &warm_dir)?;
        write_inputs(&plan_or_die(workload, o.seed, o.smoke), &dir)?;
        run_rep(&warm, &warm_dir, &o.falcon, tally)?;
        setups.push(t0.elapsed().as_secs_f64());
    }

    // Timed reps: the whole number of passes nearest to --seconds, at
    // least one (rounding, not flooring, so a pass of 4.9 s and one of
    // 4.5 s both get three passes at the default 14 s).
    let mut reps: Vec<Rep> = vec![run_rep(&plan, &dir, &o.falcon, tally)?];
    let fit = (o.seconds / reps[0].wall_s).round() as usize;
    let total = if o.smoke { 1 } else { fit.clamp(1, 50) };
    while reps.len() < total {
        reps.push(run_rep(&plan, &dir, &o.falcon, tally)?);
    }
    if plan.deterministic {
        let same = reps.iter().all(|r| r.stdout == reps[0].stdout);
        tally.record(
            "repeatability (byte-identical stdout across reps)",
            &same
                .then_some(())
                .ok_or("reps printed different bytes".into()),
        );
    }

    let good: Vec<&Rep> = reps.iter().filter(|r| r.ok).collect();
    if good.is_empty() {
        return Ok(None);
    }
    // `loopback` runs for a fixed time, so its cost is per GB moved over
    // the host loopback interface; the simulated workloads do fixed work,
    // so theirs is per pass.
    let per = |r: &Rep| r.mb_moved.map_or(1.0, |mb| mb / 1000.0);
    let stat = |f: &dyn Fn(&Rep) -> f64| Stat::of(&good.iter().map(|r| f(r)).collect::<Vec<_>>());
    let wall = stat(&|r| r.wall_s / per(r));
    let cpu = stat(&|r| r.cpu_s / per(r));
    let mut info = Vec::new();
    if good[0].mb_moved.is_some() {
        info.push(("goodput_gbps", "Gbit/s", 8.0 / wall.median));
    }
    Ok(Some(E2e {
        metrics: vec![
            ("wall_s", "s", wall),
            ("cpu_s", "s", cpu),
            ("peak_rss_mb", "MB", stat(&|r| r.peak_rss_mb)),
            ("setup_s", "s", Stat::of(&setups)),
        ],
        model_digest: plan.deterministic.then(|| check::fnv1a(&good[0].stdout)),
        info,
    }))
}

/// Run `bench-layers` on the workload's inputs; returns its metrics object
/// (the last stdout line, verbatim JSON).
fn run_layers(
    workload: &str,
    o: &Opts,
    layers: &Path,
    tally: &mut Tally,
) -> std::io::Result<Option<String>> {
    let dir = input_dir(workload, o);
    let plan = plan_or_die(workload, o.seed, o.smoke);
    write_inputs(&plan, &dir)?;
    // One undecorated CLI pass: the reference the in-process run is checked
    // against (same stdout) and compared with (process overhead).
    let cli = run_rep(&plan, &dir, &o.falcon, tally)?;
    let cli_stdout = dir.join("cli.stdout");
    std::fs::write(&cli_stdout, &cli.stdout)?;
    let mut argv = vec![
        layers.display().to_string(),
        "--workload".into(),
        workload.into(),
        "--cli-wall-s".into(),
        format!("{}", cli.wall_s),
        "--cli-stdout".into(),
        cli_stdout.display().to_string(),
        "--out".into(),
        format!("{OUT_DIR}/trace-{workload}.json"),
    ];
    if o.smoke {
        argv.push("--smoke".into());
    }
    argv.extend(
        plan.files
            .iter()
            .map(|(name, _)| dir.join(name).display().to_string()),
    );
    let stderr = dir.join("layers.stderr");
    let run = run_guarded(&argv, LAYERS_TIMEOUT, &stderr)?;
    let text = String::from_utf8_lossy(&run.stdout);
    let (head, last) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    if !head.is_empty() {
        println!("{head}");
    }
    let outcome = run.exited_cleanly().and_then(|()| match json::parse(last) {
        Ok(json::Json::Obj(_)) => Ok(()),
        _ => Err("last line is not a JSON object".to_string()),
    });
    if outcome.is_err() {
        print!("{}", std::fs::read_to_string(&stderr).unwrap_or_default());
    }
    let ok = outcome.is_ok();
    tally.record("bench-layers", &outcome);
    Ok(ok.then(|| last.to_string()))
}

fn print_e2e(workload: &str, e: &E2e) {
    for (name, unit, s) in &e.metrics {
        println!(
            "{workload:<14} {name:<12} {:>12.4} {unit:<3} n={} min {:.4} max {:.4}",
            s.median, s.n, s.min, s.max
        );
    }
    for (name, unit, v) in &e.info {
        println!("{workload:<14} {name:<12} {v:>12.4} {unit} (derived, not gated)");
    }
    if let Some(d) = e.model_digest {
        println!("{workload:<14} model_digest {d:016x}");
    }
}

fn e2e_json(e: &E2e) -> String {
    let metrics: Vec<String> = e
        .metrics
        .iter()
        .map(|(name, unit, s)| {
            format!(
                "\"{name}\":{{\"unit\":\"{unit}\",\"median\":{},\"min\":{},\"max\":{},\"n\":{}}}",
                s.median, s.min, s.max, s.n
            )
        })
        .collect();
    let digest = e
        .model_digest
        .map_or("null".to_string(), |d| format!("\"{d:016x}\""));
    format!(
        "{{\"model_digest\":{digest},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: 14.0,
        trace: None,
        smoke: false,
        falcon: PathBuf::new(),
        layers: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse {v:?}");
        match flag.as_str() {
            "--workload" => o.workload = Some(v.clone()),
            "--seed" => o.seed = v.parse().map_err(|_| bad())?,
            "--seconds" => o.seconds = v.parse().map_err(|_| bad())?,
            "--trace" => o.trace = Some(v.parse::<u8>().map_err(|_| bad())? != 0),
            "--falcon" => o.falcon = PathBuf::from(v),
            "--layers" => o.layers = Some(PathBuf::from(v)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !o.falcon.is_file() {
        return Err(format!(
            "--falcon {:?} is not a file (run through bench/run.sh)",
            o.falcon
        ));
    }
    if o.seconds.is_nan() || o.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(o)
}

fn run(o: &Opts) -> std::io::Result<i32> {
    std::fs::create_dir_all(OUT_DIR)?;
    let names: Vec<&str> = match &o.workload {
        Some(w) => vec![w.as_str()],
        None => gen::WORKLOADS.to_vec(),
    };
    if o.smoke {
        println!("SMOKE: inputs ~100x smaller; numbers are not comparable with full runs");
    }
    let mut tally = Tally::default();
    let mut results = Vec::new();
    // The contract's last line: every metric of the one part that ran.
    let mut last_line_metrics = None;
    for w in &names {
        let mut parts = Vec::new();
        if o.trace != Some(true) {
            match run_e2e(w, o, &mut tally)? {
                Some(e) => {
                    print_e2e(w, &e);
                    let flat: Vec<String> = e
                        .metrics
                        .iter()
                        .map(|(n, u, s)| {
                            format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", s.median)
                        })
                        .collect();
                    last_line_metrics = Some(format!("{{{}}}", flat.join(",")));
                    parts.push(format!("\"e2e\":{}", e2e_json(&e)));
                }
                None => println!("{w}: no rep passed its checks; no metrics"),
            }
        }
        if o.trace != Some(false) {
            let layers = match &o.layers {
                Some(bin) => run_layers(w, o, bin, &mut tally)?,
                None => None,
            };
            if o.trace == Some(true) {
                last_line_metrics = layers.clone();
            }
            parts.push(format!(
                "\"layers\":{}",
                layers.as_deref().unwrap_or("null")
            ));
        }
        results.push(format!("{}:{{{}}}", json::quote(w), parts.join(",")));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::fs::write(
        Path::new(OUT_DIR).join("results.json"),
        format!(
            "{{\"seed\":{},\"smoke\":{},\"nproc\":{nproc},\"attempted\":{},\"failed\":{},\"workloads\":{{{}}}}}\n",
            o.seed,
            o.smoke,
            tally.attempted,
            tally.failed,
            results.join(",")
        ),
    )?;
    println!(
        "attempted {} failed {} fail_ratio {:.4}",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    if o.workload.is_some() && o.trace.is_some() {
        let Some(metrics) = last_line_metrics else {
            eprintln!("error: no metrics to report");
            return Ok(1);
        };
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
            tally.failed == 0,
            tally.attempted,
            tally.failed
        );
    }
    Ok(i32::from(tally.failed > 0))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.split_first() {
        Some((cmd, rest)) if cmd == "compare" && rest.len() == 2 => {
            compare::compare(&rest[0], &rest[1])
        }
        Some((cmd, rest)) if cmd == "run" => {
            parse_opts(rest).and_then(|o| run(&o).map_err(|e| e.to_string()))
        }
        _ => Err(
            "usage: bench-e2e run --falcon BIN [--layers BIN] [--workload W] [--seed N] \
                  [--seconds S] [--trace 0|1] [--smoke] | bench-e2e compare A.json B.json"
                .into(),
        ),
    };
    match code {
        Ok(c) => std::process::exit(c),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
