//! CLI for the workspace invariant checker.
//!
//! ```text
//! cargo run -p falcon-lint                    # lint this workspace
//! cargo run -p falcon-lint -- --root <dir>    # lint another checkout
//! cargo run -p falcon-lint -- --github        # also print GitHub Actions annotations
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use falcon_lint::report;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut github = false;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--github" => github = true,
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "falcon-lint: workspace invariant checker\n\
                     \n\
                     USAGE: falcon-lint [--root <dir>] [--github]\n\
                     \n\
                     Rules: determinism, panic-safety, lock-across-blocking, float-cmp,\n\
                     unit-mismatch, float-time-accum, lock-order.\n\
                     Suppress inline with: // falcon-lint::allow(rule, reason = \"...\")\n\
                     \n\
                     --root   lint the checkout at <dir> (default: this workspace)\n\
                     --github also print findings as ::error workflow annotations"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    // Default root: the workspace this binary was built from.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap_or_else(|_| PathBuf::from("."))
    });

    let findings = match falcon_lint::lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("falcon-lint: cannot walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    if github {
        print!("{}", report::to_github_annotations(&findings));
    }
    println!("falcon-lint: {} finding(s)", findings.len());
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
