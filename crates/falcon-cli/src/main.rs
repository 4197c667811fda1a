//! `falcon` binary entry point.

use falcon_cli::args::{self, Command, ScenarioArgs};
use falcon_cli::{run, scenario};

fn scenario_cmd(a: &ScenarioArgs) -> Result<String, String> {
    let text = std::fs::read_to_string(&a.path).map_err(|e| format!("reading {}: {e}", a.path))?;
    let sc = scenario::parse(&text).map_err(|e| e.to_string())?;
    if a.trace_out.is_none() && !a.trace_summary {
        return scenario::run(&sc).map_err(|e| e.to_string());
    }
    let (outcome, log) = scenario::run_traced(&sc).map_err(|e| e.to_string())?;
    let mut out = scenario::render(&sc, &outcome).map_err(|e| e.to_string())?;
    if let Some(path) = &a.trace_out {
        std::fs::write(path, log.to_jsonl()).map_err(|e| format!("writing trace {path}: {e}"))?;
        out.push_str(&format!("structured trace written to {path}\n"));
    }
    if a.trace_summary {
        out.push_str(&log.summary());
    }
    Ok(out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match args::parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", args::USAGE);
            std::process::exit(2);
        }
    };
    let result = match command {
        Command::Help => {
            print!("{}", args::USAGE);
            return;
        }
        Command::Envs => {
            print!("{}", run::list_envs());
            return;
        }
        Command::Simulate(a) => run::simulate(&a),
        Command::Loopback(a) => run::loopback(&a),
        Command::Scenario(a) => scenario_cmd(&a),
    };
    match result {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
