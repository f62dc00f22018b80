#!/usr/bin/env bash
# The one command of the FormAD-rs benchmark.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--traced]
#       every workload, each in its own process: the untraced run (the
#       end-to-end metrics) and, with --traced, the traced run (the
#       per-layer metrics and benchmark/out/trace-<workload>.json).
#       Exits non-zero if any check failed.
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of output is the result
#       as one JSON object (the form BENCHMARK.json's driver calls).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# Release builds of the benchmark and of the `formad` CLI it times as a
# subprocess. Both are no-ops when nothing changed.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo build --release --offline --quiet --manifest-path crates/cli/Cargo.toml
bin="$CARGO_TARGET_DIR/release/formad-benchmark"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done

seed=1 seconds=10 traced=0
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --traced) traced=1; shift ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done
status=0
for workload in prove_heavy frontend_corpus reanalyze exec_adjoint serve_mix; do
    for trace in $(seq 0 "$traced"); do
        echo "== $workload (trace $trace)"
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            | grep -v '^{' || status=1
    done
done
exit $status
