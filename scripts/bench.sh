#!/usr/bin/env bash
# Runs every benchmark binary at full workload and saves the output under
# bench-out/: one human-readable .txt per bench plus machine-readable
# BENCH_<name>.json files (name -> {time_ns, events_per_s, bytes_per_s})
# for perf tracking. `ctest -L bench-smoke` covers the fast
# keep-it-running check.
#
# Google Benchmark binaries (bench_automaton, bench_crypto,
# bench_pipeline) emit JSON via --benchmark_out, converted here; the plain
# table benches — including bench_transport (BENCH_transport.json, the
# tracked round-trip series), bench_fault (BENCH_fault.json, the tracked
# healthy-vs-degraded replicated-fabric series), bench_ablation and
# bench_baselines and bench_dissemination (all three tracked at the repo
# root too), bench_skip_index and bench_scenarios (BENCH_scenarios.json, the tracked
# elements x rules x update-rate scenario grid) — write their own report
# when CSXA_BENCH_JSON is set (bench/bench_util.h JsonReport). Any new
# bench_* binary is picked up automatically by the `*` case below.
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"

# A stray smoke variable would silently record tiny-workload numbers as
# full-run baselines.
unset CSXA_BENCH_SMOKE
unset CSXA_BENCH_JSON

if [ ! -d "$build_dir/bench" ]; then
  echo "error: $build_dir/bench not found — run scripts/ci.sh first" >&2
  exit 1
fi

gbench_to_json() {
  # Flattens Google Benchmark's JSON into the BENCH_*.json schema.
  python3 - "$1" "$2" <<'EOF'
import json, sys
raw = json.load(open(sys.argv[1]))
out = {}
for b in raw.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    unit = b.get("time_unit", "ns")
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit, 1.0)
    out[b["name"]] = {
        "time_ns": b.get("real_time", 0.0) * scale,
        "events_per_s": b.get("events/s", 0.0),
        "bytes_per_s": b.get("bytes/s", b.get("bytes_per_second", 0.0)),
        "value": 0.0,
    }
json.dump(out, open(sys.argv[2], "w"), indent=2)
print("wrote", sys.argv[2])
EOF
}

mkdir -p bench-out
for bin in "$build_dir"/bench/bench_*; do
  [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  short="${name#bench_}"
  echo "== $name"
  case "$name" in
    bench_automaton|bench_crypto|bench_pipeline)
      "$bin" --benchmark_out="bench-out/raw_$name.json" \
             --benchmark_out_format=json | tee "bench-out/$name.txt"
      gbench_to_json "bench-out/raw_$name.json" "bench-out/BENCH_$short.json"
      ;;
    *)
      CSXA_BENCH_JSON="bench-out/BENCH_$short.json" "$bin" \
        | tee "bench-out/$name.txt"
      ;;
  esac
done
echo "wrote bench-out/*.txt and bench-out/BENCH_*.json"
