//! `falcon-lint`: the workspace invariant checker.
//!
//! The Falcon reproduction rests on invariants the Rust compiler cannot
//! check. The optimizer/transfer layers must **degrade instead of panic**
//! (a single `unwrap()` on a probe path defeats the whole fault-recovery
//! design), and the simulation crates must not reach for wall clocks or
//! ambient entropy. This crate encodes those invariants — plus lock
//! hygiene, float discipline and unit discipline — as an enforced
//! static-analysis pass:
//!
//! | rule | what it catches |
//! |------|-----------------|
//! | `determinism` | `Instant`/`SystemTime`, `thread_rng`/`from_entropy`, `HashMap`/`HashSet` in `falcon-sim`/`falcon-core`/`falcon-gp`/`falcon-tcp`/`falcon-trace`/`falcon-fleet`/`falcon-rl` |
//! | `panic-safety` | `unwrap`/`expect`/`panic!`/`unreachable!`/`assert!`-family in non-test library code |
//! | `lock-across-blocking` | a `Mutex` guard held across `sleep`/`join`/channel ops/blocking I/O |
//! | `float-cmp` | exact `==`/`!=` against a float literal |
//! | `unit-mismatch` | arithmetic/comparison/assignment mixing identifier unit suffixes (`at_s + backoff_ms`) |
//! | `float-time-accum` | `t += dt`-style float time accumulation in loops outside the blessed DES integration module |
//! | `lock-order` | a mutex re-acquired while held, or a cycle in the workspace lock-order graph (potential deadlock) |
//!
//! Implementation: a hand-written lexer ([`lexer`]) strips comments and
//! string literals and tokenizes; the rules ([`rules`]) scan each file's
//! tokens with test-region masking, using delimiter and loop-body matching
//! from [`parse`] — no syn, no regex, no external dependencies. Lock-order
//! edges from every file meet in one cycle check. Findings print as text or
//! as GitHub Actions annotations ([`report`]) for CI.
//!
//! Escape hatches, in preference order:
//!
//! 1. fix the code;
//! 2. inline `// falcon-lint::allow(rule, reason = "...")` on or above the
//!    offending line (the reason is mandatory, and a directive that
//!    silences nothing is itself a finding).
//!
//! Run it three ways: `cargo run -p falcon-lint`, the tier-1 integration
//! test `tests/lint.rs` at the workspace root, and the CI `falcon-lint`
//! job.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod engine;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;

pub use engine::{lint_files, lint_source, lint_workspace, workspace_sources, SourceSpec};
pub use rules::{Finding, Rule, DETERMINISM_CRATES};
