#!/usr/bin/env bash
# The repo benchmark's one command. Builds the release CLI and the two bench
# packages offline, then measures.
#
#   bench/run.sh [--seed N] [--smoke]
#       all five workloads: end-to-end metrics, then the traced run; writes
#       bench/out/results.json and bench/out/trace-<workload>.json.
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload, one half (0: end to end, 1: per layer); the last
#       stdout line is the result as one JSON object.
#   bench/run.sh compare A.json B.json
#       per (workload, metric) change against the bounds in BENCHMARK.json.
#
# Exits non-zero iff a child failed, timed out or printed something wrong.
set -euo pipefail
cd "$(dirname "$0")/.."

# Cargo chatter goes to stderr, so stdout stays the benchmark's own.
build() { cargo build --release --offline --quiet "$@" >&2; }

build --manifest-path bench/e2e/Cargo.toml
e2e="${CARGO_TARGET_DIR:-bench/e2e/target}/release/bench-e2e"
if [ "${1:-}" = compare ]; then
    exec "$e2e" "$@"
fi

build -p falcon-cli
falcon="${CARGO_TARGET_DIR:-target}/release/falcon"

# The traced half links the product crates; if a later change moved a public
# API it may not compile. The end-to-end half does not depend on it.
mkdir -p bench/out
layers=()
if build --manifest-path bench/layers/Cargo.toml 2>bench/out/layers-build.log; then
    layers=(--layers "${CARGO_TARGET_DIR:-bench/layers/target}/release/bench-layers")
else
    echo "LAYERS UNAVAILABLE: $(grep -m1 '^error' bench/out/layers-build.log || echo 'build failed')"
fi

exec "$e2e" run --falcon "$falcon" ${layers[@]+"${layers[@]}"} "$@"
