#!/usr/bin/env bash
# Build the release binaries offline, then hand every argument to the
# harness. One command for everything:
#
#   mrpic_benchmark/run.sh                      all six workloads, untraced
#   mrpic_benchmark/run.sh --traced             the per-layer ladder + trace.json
#   mrpic_benchmark/run.sh --workload mr_hybrid --seed 3 --seconds 15 --trace 0
#   mrpic_benchmark/run.sh --aa 5               A/A self-check
#   mrpic_benchmark/run.sh --smoke [--traced]   seconds-long API/liveness check
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# The harness, plus the three binaries the process-level workloads
# drive and the profiler that reads trace.json; cargo reports on stderr,
# so stdout stays the harness's alone.
cargo build --release --offline --quiet \
    --manifest-path mrpic_benchmark/Cargo.toml \
    -p mrpic-benchmark -p mrpic \
    --bin mrpic_benchmark --bin mrpic_run --bin mrpic_rank --bin mrpic_serve --bin mrpic_prof
exec "$CARGO_TARGET_DIR/release/mrpic_benchmark" "$@"
