//! Hand-rolled `--key value` argument parsing.

use std::fmt;
use std::time::Duration;

use falcon_fleet::FleetTuner;

/// `--optimizer <x>`: the registry's `falcon-<x>` entry.
fn optimizer(v: &str) -> Result<FleetTuner, ParseError> {
    FleetTuner::from_name(&format!("falcon-{v}"))
        .ok_or_else(|| ParseError(format!("unknown optimizer {v:?} (one of gd|bo|hc|mp)")))
}

/// Arguments of `falcon simulate`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateArgs {
    /// Environment preset name (see `falcon envs`).
    pub env: String,
    /// Search algorithm (`--optimizer gd|bo|hc|mp`).
    pub optimizer: FleetTuner,
    /// Simulated duration (seconds).
    pub duration_s: f64,
    /// Gigabytes to transfer (1 GB files).
    pub gigabytes: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimulateArgs {
    fn default() -> Self {
        SimulateArgs {
            env: "xsede".to_string(),
            optimizer: FleetTuner::GradientDescent,
            duration_s: 300.0,
            gigabytes: 1000,
            seed: 42,
        }
    }
}

/// Arguments of `falcon loopback`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopbackArgs {
    /// Search algorithm (`mp` is rejected: pipelining has no wire effect
    /// on loopback).
    pub optimizer: FleetTuner,
    /// Per-worker token-bucket rate (Mbps) — the emulated per-process cap.
    pub per_worker_mbps: f64,
    /// Probe interval (seconds).
    pub interval_s: f64,
    /// Number of probes to run.
    pub probes: u32,
    /// Worker-pool ceiling.
    pub max_workers: u32,
}

impl Default for LoopbackArgs {
    fn default() -> Self {
        LoopbackArgs {
            optimizer: FleetTuner::GradientDescent,
            per_worker_mbps: 60.0,
            interval_s: 1.0,
            probes: 20,
            max_workers: 24,
        }
    }
}

/// Arguments of `falcon scenario`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioArgs {
    /// Scenario file path.
    pub path: String,
    /// Optional JSONL structured-trace output path (`--trace`).
    pub trace_out: Option<String>,
    /// Print the structured-trace summary after the report
    /// (`--trace-summary`).
    pub trace_summary: bool,
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run against a simulated preset.
    Simulate(SimulateArgs),
    /// Run against live loopback sockets.
    Loopback(LoopbackArgs),
    /// Run a declarative scenario file.
    Scenario(ScenarioArgs),
    /// List environment presets.
    Envs,
    /// Print usage.
    Help,
}

/// Parse failure with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn take_pairs(args: &[String]) -> Result<Vec<(&str, &str)>, ParseError> {
    if !args.len().is_multiple_of(2) {
        return Err(ParseError(format!(
            "expected --key value pairs, got a dangling {:?}",
            args.last().map_or("", String::as_str)
        )));
    }
    let mut pairs = Vec::new();
    for chunk in args.chunks(2) {
        let key = chunk[0]
            .strip_prefix("--")
            .ok_or_else(|| ParseError(format!("expected a --flag, got {:?}", chunk[0])))?;
        pairs.push((key, chunk[1].as_str()));
    }
    Ok(pairs)
}

fn num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, ParseError> {
    v.parse()
        .map_err(|_| ParseError(format!("--{key}: cannot parse {v:?}")))
}

/// A finite number that `ok` accepts, or an error naming `key`: the one
/// rule for the times, rates and factors the engines divide by, index with
/// or loop until, whether a flag or a scenario key gives them.
pub(crate) fn ranged(
    key: &str,
    v: &str,
    ok: fn(f64) -> bool,
    want: &str,
) -> Result<f64, ParseError> {
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && ok(x) => Ok(x),
        Ok(_) => Err(ParseError(format!("{key}: must be {want}, got {v:?}"))),
        Err(_) => Err(ParseError(format!("{key}: cannot parse {v:?}"))),
    }
}

fn positive(key: &str, v: &str) -> Result<f64, ParseError> {
    ranged(&format!("--{key}"), v, |x| x > 0.0, "finite and > 0")
}

/// Parse a full argument vector (without the binary name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "simulate" => {
            let mut a = SimulateArgs::default();
            for (k, v) in take_pairs(rest)? {
                match k {
                    "env" => a.env = v.to_string(),
                    "optimizer" => a.optimizer = optimizer(v)?,
                    "duration" => a.duration_s = positive(k, v)?,
                    "gigabytes" => {
                        a.gigabytes = crate::scenario::gib_count(v)
                            .map_err(|e| ParseError(format!("--{k}: {e}")))?;
                    }
                    "seed" => a.seed = num(k, v)?,
                    other => return Err(ParseError(format!("unknown flag --{other}"))),
                }
            }
            Ok(Command::Simulate(a))
        }
        "loopback" => {
            let mut a = LoopbackArgs::default();
            for (k, v) in take_pairs(rest)? {
                match k {
                    "optimizer" => a.optimizer = optimizer(v)?,
                    "per-worker-mbps" => a.per_worker_mbps = positive(k, v)?,
                    // `Duration::from_secs_f64` panics on what it cannot hold.
                    "interval" => {
                        let ok = |x: f64| x > 0.0 && Duration::try_from_secs_f64(x).is_ok();
                        a.interval_s = ranged("--interval", v, ok, "finite, > 0 and below 2^64")?;
                    }
                    "probes" => a.probes = num(k, v)?,
                    "max-workers" => a.max_workers = num(k, v)?,
                    other => return Err(ParseError(format!("unknown flag --{other}"))),
                }
            }
            if a.optimizer == FleetTuner::MultiParameter {
                return Err(ParseError(
                    "multi-parameter tuning has no effect on loopback (no control channel); use gd|bo|hc".into(),
                ));
            }
            if a.probes == 0 {
                return Err(ParseError("--probes: must be >= 1".into()));
            }
            if a.max_workers == 0 {
                return Err(ParseError("--max-workers: must be >= 1".into()));
            }
            Ok(Command::Loopback(a))
        }
        "scenario" => {
            let mut path: Option<String> = None;
            let mut trace_out = None;
            let mut trace_summary = false;
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--trace" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--trace requires a file path".into()))?;
                        trace_out = Some(v.clone());
                    }
                    "--trace-summary" => trace_summary = true,
                    flag if flag.starts_with("--") => {
                        return Err(ParseError(format!("unknown flag {flag}")))
                    }
                    p => {
                        if path.replace(p.to_string()).is_some() {
                            return Err(ParseError("scenario takes exactly one file path".into()));
                        }
                    }
                }
            }
            let path =
                path.ok_or_else(|| ParseError("scenario takes exactly one file path".into()))?;
            Ok(Command::Scenario(ScenarioArgs {
                path,
                trace_out,
                trace_summary,
            }))
        }
        "envs" => Ok(Command::Envs),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(ParseError(format!("unknown command {other:?}"))),
    }
}

/// Usage text.
pub const USAGE: &str = "\
falcon — online file-transfer optimization (SC'21 reproduction)

USAGE:
  falcon simulate [--env NAME] [--optimizer gd|bo|hc|mp] [--duration SECS]
                  [--gigabytes N] [--seed N]
  falcon loopback [--optimizer gd|bo|hc] [--per-worker-mbps RATE]
                  [--interval SECS] [--probes N] [--max-workers N]
  falcon scenario FILE [--trace OUT.jsonl] [--trace-summary]
  falcon envs
  falcon help

  --gigabytes N       data to move, as N files of 1 GiB; count ≥ 1
  --probes N          probe intervals to run on loopback; N ≥ 1
  --trace OUT.jsonl   write the structured event trace (probes, decisions,
                      settings changes, recovery, environment events,
                      convergence markers) as JSON Lines
  --trace-summary     print per-agent event counts and convergence times
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
    }

    #[test]
    fn simulate_defaults() {
        let Command::Simulate(a) = parse(&argv("simulate")).unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(a, SimulateArgs::default());
    }

    #[test]
    fn simulate_full_flags() {
        let cmd = parse(&argv(
            "simulate --env hpclab --optimizer bo --duration 120 --gigabytes 50 --seed 7",
        ))
        .unwrap();
        let Command::Simulate(a) = cmd else {
            panic!("wrong command");
        };
        assert_eq!(a.env, "hpclab");
        assert_eq!(a.optimizer, FleetTuner::Bayesian);
        assert_eq!(a.duration_s, 120.0);
        assert_eq!(a.gigabytes, 50);
        assert_eq!(a.seed, 7);
    }

    #[test]
    fn loopback_rejects_mp() {
        let err = parse(&argv("loopback --optimizer mp")).unwrap_err();
        assert!(err.0.contains("loopback"), "{err}");
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse(&argv("simulate --bogus 1")).is_err());
    }

    #[test]
    fn dangling_value_rejected() {
        assert!(parse(&argv("simulate --env")).is_err());
    }

    #[test]
    fn bad_number_rejected() {
        let err = parse(&argv("simulate --duration banana")).unwrap_err();
        assert!(err.0.contains("duration"), "{err}");
    }

    #[test]
    fn nonpositive_duration_rejected() {
        assert!(parse(&argv("simulate --duration 0")).is_err());
    }

    /// Numeric flags follow the scenario keys' rules, and the error names
    /// the flag: `--interval nan` panicked building a `Duration`,
    /// `--duration nan` printed an empty report with exit 0, and
    /// `--duration inf` with the largest `--gigabytes` never returned.
    #[test]
    fn numeric_flags_must_be_finite_and_in_range() {
        for (cmd, flag, bad) in [
            ("simulate", "duration", "nan"),
            ("simulate", "duration", "inf"),
            ("simulate", "duration", "-5"),
            ("simulate", "gigabytes", "18446744073709551615"),
            ("simulate", "gigabytes", "17179869184"), // 2^34 GiB = 2^64 bytes
            ("simulate", "gigabytes", "0"),
            ("loopback", "interval", "nan"),
            ("loopback", "interval", "inf"),
            ("loopback", "interval", "1e300"),
            ("loopback", "interval", "0"),
            ("loopback", "per-worker-mbps", "nan"),
            ("loopback", "per-worker-mbps", "inf"),
            ("loopback", "per-worker-mbps", "-1"),
            ("loopback", "max-workers", "0"),
            ("loopback", "probes", "0"),
        ] {
            let e = parse(&argv(&format!("{cmd} --{flag} {bad}"))).unwrap_err();
            assert!(
                e.0.starts_with(&format!("--{flag}:")),
                "{cmd} --{flag} {bad}: {e}"
            );
        }
        assert!(parse(&argv("simulate --gigabytes 17179869183 --duration 1e6")).is_ok());
        assert!(parse(&argv("loopback --interval 0.25 --per-worker-mbps 1e6")).is_ok());
    }

    #[test]
    fn optimizer_aliases() {
        for (alias, expect) in [
            ("gd", FleetTuner::GradientDescent),
            ("bo", FleetTuner::Bayesian),
            ("hc", FleetTuner::HillClimbing),
            ("mp", FleetTuner::MultiParameter),
        ] {
            let Command::Simulate(a) =
                parse(&argv(&format!("simulate --optimizer {alias}"))).unwrap()
            else {
                panic!("wrong command");
            };
            assert_eq!(a.optimizer, expect);
        }
        for gone in [
            "gradient-descent",
            "bayesian",
            "hill-climbing",
            "rl:q",
            "fixed:4",
        ] {
            assert!(parse(&argv(&format!("simulate --optimizer {gone}"))).is_err());
        }
    }

    #[test]
    fn scenario_takes_one_path() {
        assert_eq!(
            parse(&argv("scenario demo.ini")).unwrap(),
            Command::Scenario(ScenarioArgs {
                path: "demo.ini".into(),
                trace_out: None,
                trace_summary: false,
            })
        );
        assert!(parse(&argv("scenario")).is_err());
        assert!(parse(&argv("scenario a b")).is_err());
    }

    #[test]
    fn scenario_trace_flags() {
        let Command::Scenario(a) =
            parse(&argv("scenario demo.ini --trace out.jsonl --trace-summary")).unwrap()
        else {
            panic!("wrong command");
        };
        assert_eq!(a.path, "demo.ini");
        assert_eq!(a.trace_out.as_deref(), Some("out.jsonl"));
        assert!(a.trace_summary);
        // Flag order does not matter; the path may come last.
        let Command::Scenario(b) = parse(&argv("scenario --trace-summary demo.ini")).unwrap()
        else {
            panic!("wrong command");
        };
        assert_eq!(b.path, "demo.ini");
        assert!(b.trace_summary);
        assert_eq!(b.trace_out, None);
        // --trace without a value is rejected, as are unknown flags.
        assert!(parse(&argv("scenario demo.ini --trace")).is_err());
        assert!(parse(&argv("scenario demo.ini --bogus")).is_err());
    }

    #[test]
    fn envs_command() {
        assert_eq!(parse(&argv("envs")).unwrap(), Command::Envs);
    }

    #[test]
    fn unknown_command_rejected() {
        assert!(parse(&argv("teleport")).is_err());
    }
}
