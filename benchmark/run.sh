#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json names it).
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run; the last line of stdout is the result JSON
#   bash benchmark/run.sh
#       every workload, timed pass then traced pass, default seed: prints
#       the flat `workload/metric value unit` table and writes the result
#       lines and Chrome traces to benchmark/out/
#   bash benchmark/run.sh aa [--seed S]
#       the A/A check
#
# Run from the root of a checkout.  Builds the package first, offline,
# against the dependency shims in ../shims; the build goes to
# $CARGO_TARGET_DIR when set and to benchmark/target otherwise.
set -euo pipefail

manifest=benchmark/Cargo.toml
if [ ! -f "$manifest" ]; then
    echo "run.sh: run me from the root of a checkout (no $manifest here)" >&2
    exit 2
fi

# Build output goes to stderr: stdout carries results only.
cargo build --release --offline --manifest-path "$manifest" >&2

bin="${CARGO_TARGET_DIR:-benchmark/target}/release/ripple-benchmark"
if [ "$#" -eq 0 ]; then
    exec "$bin" run all --trace
fi
exec "$bin" "$@"
