#!/usr/bin/env bash
# Build the benchmark and the release `skyline` binary from source, then run
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-rw --seed 1 --seconds 20 --trace 0
#
# Cargo output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin skyline >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
"$CARGO_TARGET_DIR/release/perfbench" --skyline "$CARGO_TARGET_DIR/release/skyline" "$@" &
bench=$!
# If this script is stopped, stop the benchmark and the servers it started.
trap 'pkill -P "$bench" 2>/dev/null; kill "$bench" 2>/dev/null; wait "$bench"; exit 143' INT TERM
wait "$bench"
