//! `falcon-lint`: the workspace invariant checker.
//!
//! The Falcon reproduction rests on invariants neither the Rust compiler
//! nor clippy can check. The optimizer/transfer layers must **degrade
//! instead of panic** (a single `assert!` on a probe path defeats the
//! whole fault-recovery design), locks must not serialize the real-socket
//! engine, and float time and unit suffixes must stay consistent. This
//! crate encodes those invariants as an enforced static-analysis pass:
//!
//! | rule | what it catches |
//! |------|-----------------|
//! | `panic-safety` | `panic!`/`unreachable!`/`todo!`/`unimplemented!`/`assert!`-family in non-test library code |
//! | `lock-across-blocking` | a `Mutex` guard held across `sleep`/`join`/channel ops/blocking I/O |
//! | `float-cmp` | exact `==`/`!=` against a float literal |
//! | `unit-mismatch` | arithmetic/comparison/assignment mixing identifier unit suffixes (`at_s + backoff_ms`) |
//! | `float-time-accum` | `t += dt`-style float time accumulation in loops outside the blessed DES integration module |
//! | `lock-order` | a mutex re-acquired while held, or a cycle in the workspace lock-order graph (potential deadlock) |
//!
//! What clippy carries is left to clippy: `.unwrap()`/`.expect()` are
//! `clippy::unwrap_used`/`clippy::expect_used`, denied in every crate
//! root, and wall clocks and hash containers in the model crates are
//! `clippy::disallowed_types` (the root `clippy.toml`).
//!
//! Implementation: a hand-written lexer ([`lexer`]) strips comments and
//! string literals and tokenizes; the rules ([`rules`]) scan each file's
//! tokens with test-region masking, using delimiter and loop-body matching
//! from [`parse`] — no syn, no regex, no external dependencies. Lock-order
//! edges from every file meet in one cycle check.
//!
//! Escape hatches, in preference order:
//!
//! 1. fix the code;
//! 2. inline `// falcon-lint::allow(rule, reason = "...")` on or above the
//!    offending line (the reason is mandatory, and a directive that
//!    silences nothing is itself a finding).
//!
//! It runs as the tier-1 integration test `tests/lint.rs` at the
//! workspace root (`cargo test --test lint`).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod engine;
pub mod lexer;
pub mod parse;
pub mod rules;

pub use engine::{lint_files, lint_source, lint_workspace, workspace_sources, SourceSpec};
pub use rules::{Finding, Rule};
