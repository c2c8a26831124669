#!/usr/bin/env bash
# Builds the shipped `v2v` binary and the benchmark from source, then runs
# one benchmark workload. Run from the repository root:
#
#   bash benchmark/run.sh --workload <embed|serve_read|serve_ingest> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build). Cargo's
# messages go to stderr; the last line of stdout is the result object.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p v2v-cli
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/v2v-benchmark" "$@"
