#!/usr/bin/env bash
# Builds sbqa_perf from source, then runs it from the repository root.
#
#   perf/run.sh                      every workload, one process each -> perf/results/<label>.json
#   perf/run.sh --trace              ... plus the traced run: per-layer metrics, stage table, spans
#   perf/run.sh --quick              2 000 providers, 1 segment; stamped "not comparable"
#   perf/run.sh --repeat 2           the suite twice, then `compare`: the self-agreement gate
#   perf/run.sh compare A.json B.json
#   perf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>    (the driver's form)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

# cargo runs inside perf/ (its own workspace), so a relative CARGO_TARGET_DIR
# would land there: pin it to the repository root first.
case "${CARGO_TARGET_DIR:-}" in
    "") export CARGO_TARGET_DIR="$ROOT/target" ;;
    /*) ;;
    *) export CARGO_TARGET_DIR="$ROOT/$CARGO_TARGET_DIR" ;;
esac

(cd perf && cargo build --release --offline --quiet) >&2

exec "$CARGO_TARGET_DIR/release/sbqa_perf" "$@"
