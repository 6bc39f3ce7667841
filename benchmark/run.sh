#!/usr/bin/env bash
# Builds `serve` (from the repository workspace) and `rll-benchmark` (a
# workspace of its own) into one target directory, then runs the benchmark
# with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload serve-hot --seed 7 --seconds 20 --trace 0
#
# Cargo's output goes to standard error; standard output is the benchmark's.
#
# The benchmark, and every `serve` it starts, runs on one CPU (the last
# one) when `taskset` exists. On a small host shared with other tenants,
# work spread over two CPUs moved by up to half between runs as the second
# CPU came and went; on one CPU the end-to-end metrics repeat within a few
# percent. Under the pin the host reports one core, so trainers default to
# one thread and the load generator opens one connection.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p rll-serve --bin serve >&2
cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/rll-benchmark"
if command -v taskset >/dev/null 2>&1; then
    # The affinity list looks like "0-1" or "0,2-3"; keep its last CPU.
    cpus="$(taskset -cp $$)"
    cpus="${cpus##*: }"
    exec taskset -c "${cpus##*[,-]}" "$bin" "$@"
fi
echo "run.sh: taskset not found; running unpinned (expect noisier numbers)" >&2
exec "$bin" "$@"
