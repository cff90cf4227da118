#!/usr/bin/env bash
# Checks that the modeled-clock benchmark series are byte-identical to the
# committed files. bench_transport, bench_ablation, bench_baselines,
# bench_end_to_end and bench_dissemination report only modeled costs
# (card/link clock, round trips, bytes), so a refactor that keeps the cost
# model must reproduce BENCH_transport.json, BENCH_ablation.json,
# BENCH_baselines.json, BENCH_end_to_end.json and BENCH_dissemination.json
# exactly. Each bench is rerun at full workload into a
# temporary directory and compared with `cmp`; any difference fails.
#
# Usage: scripts/check_modeled_bench.sh [build_dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"

# A smoke cap would shrink the workloads and change every series.
unset CSXA_BENCH_SMOKE

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

status=0
for name in transport ablation baselines end_to_end dissemination; do
  bin="$build_dir/bench/bench_$name"
  if [ ! -x "$bin" ]; then
    echo "error: $bin not found — build the benches first" >&2
    exit 1
  fi
  CSXA_BENCH_JSON="$out/BENCH_$name.json" "$bin" > /dev/null
  if cmp -s "BENCH_$name.json" "$out/BENCH_$name.json"; then
    echo "ok: BENCH_$name.json"
  else
    echo "DIFF: BENCH_$name.json differs from a fresh bench_$name run:" >&2
    diff "BENCH_$name.json" "$out/BENCH_$name.json" >&2 || true
    status=1
  fi
done
exit "$status"
