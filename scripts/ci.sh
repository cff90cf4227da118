#!/usr/bin/env bash
# CI entrypoint. `scripts/ci.sh [stage]` runs one stage; with no argument
# (or `all`) it runs every stage in the order below. Each CI job calls its
# own stage, so every build configuration and label list lives here once.
#
#   docs       intra-repo Markdown link check
#   tier1      the ROADMAP.md tier-1 verify with -Werror, the gated labels
#              and the modeled-bench byte check
#   release    Release -Werror build and the allocation pins
#   tsan       ThreadSanitizer over the serving-stack labels
#   asan       AddressSanitizer over buffer-shuffling labels
#   ubsan      UndefinedBehaviorSanitizer over every label
#   perfbench  the benchmark package's held-out runs
#   shared     shared-library build and smoke
#
# Exits non-zero on any configure, build, or test failure.
set -euo pipefail

cd "$(dirname "$0")/.."

STAGES=(docs tier1 release tsan asan ubsan perfbench shared)

stage_docs() {
  ./scripts/check_links.sh
}

# -Werror in CI only: the tree is warning-clean and must stay so; local
# builds keep plain -Wall -Wextra so experiments aren't blocked.
stage_tier1() {
  cmake -B build -S . -DCSXA_WERROR=ON
  cmake --build build -j "$(nproc)"
  (
    cd build
    ctest --output-on-failure -j "$(nproc)"
    # The transport layer (dsp::Service protocol, sharding, caching, the
    # miss window) gates separately so a regression names itself in CI
    # logs, as does the fetch planner (the per-chunk / first-run /
    # owner-plan / learned-plan differential suite) and the scenario
    # generator (seed-stability and oracle properties plus the IoT-fleet /
    # e-health acceptance runs).
    ctest --output-on-failure -L transport
    ctest --output-on-failure -L planner
    ctest --output-on-failure -L scengen
  )
  # The modeled-clock bench series (transport, ablation, baselines, end to
  # end, dissemination) must reproduce the committed BENCH_*.json files
  # byte for byte.
  ./scripts/check_modeled_bench.sh build
}

# Release -Werror build: the configuration perfbench/run.py compiles.
# GCC 12 warns at -O3 (inlined std::string and std::vector copies) where
# the RelWithDebInfo tier-1 build, at -O2, stays quiet. The allocation
# pins (a warm card session and a warm terminal query allocate the same
# over a 1k- and a 4k-element folder; a fetched chunk allocates nothing)
# are run here too, in the build whose wall times the benchmark reports.
stage_release() {
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DCSXA_WERROR=ON \
    -DCSXA_BUILD_BENCH=OFF -DCSXA_BUILD_EXAMPLES=OFF
  cmake --build build-release -j "$(nproc)"
  build-release/tests/decode_alloc_test
  build-release/tests/card_alloc_test
}

# ThreadSanitizer pass over the serving-stack suites: the transport,
# concurrency, fault, planner, durable and scengen labels exercise the
# shared caches, sharded stores, the async dispatcher, the replicated
# fabric (failover, catch-up, retry storms), the multi-span planned fetch
# path, the durable block store and the generated-scenario load runs from
# many threads — TSan turns latent races into failures. Separate build dir
# (instrumentation is ABI-incompatible); benches and examples are skipped
# to keep the instrumented build small.
stage_tsan() {
  cmake -B build-tsan -S . -DCSXA_SANITIZE=thread -DCSXA_WERROR=ON \
    -DCSXA_BUILD_BENCH=OFF -DCSXA_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j "$(nproc)"
  (cd build-tsan && ctest --output-on-failure \
    -L "transport|concurrency|fault|durable|planner|scengen")
  # The dispatcher hands a lane between an Execute() caller running inline
  # and the lane's worker; repeat its suite so TSan sees many interleavings.
  build-tsan/tests/concurrency_test --gtest_filter='*AsyncDispatcher*' \
    --gtest_repeat=200
}

# AddressSanitizer pass over the durable store: the block layer, crash
# recovery and quarantine paths shuffle raw buffers, truncate files and
# replay torn tails — exactly where an off-by-one reads out of bounds. The
# transport label adds the backend-parity suite, whose DurableServer leg
# serves the same protocol core from lazily loaded blobs, and the unit
# label adds crypto_test, whose AES-NI / SHA-NI legs do 16-byte intrinsic
# loads and stores at every buffer length. The planner and fuzz labels
# cover soe::PlannedProvider, which moves chunks out of its buffer, fed
# owner, learned and corrupted plans; the fuzz label also decodes mutated
# documents through 7-, 13- and 64-byte chunk windows and feeds the card
# applet mutated command payloads. The property label adds
# chunking_invariance_test, whose chunk-size sweep (every size from 3 to
# 96 bytes, then 64-4096 with 97 and 300 among them) puts the document
# decoder's byte-window edge inside multi-byte varints: its reads fall
# back from the window to ReadExact there.
stage_asan() {
  cmake -B build-asan -S . -DCSXA_SANITIZE=address -DCSXA_WERROR=ON \
    -DCSXA_BUILD_BENCH=OFF -DCSXA_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j "$(nproc)"
  (cd build-asan && ctest --output-on-failure \
    -L "durable|transport|unit|planner|fuzz|property")
}

# UndefinedBehaviorSanitizer pass over every label: shifts, overflows,
# misaligned loads and bad enum values anywhere in the tree. UBSan only
# reports by default; halt_on_error turns a report into a test failure.
stage_ubsan() {
  cmake -B build-ubsan -S . -DCSXA_SANITIZE=undefined -DCSXA_WERROR=ON \
    -DCSXA_BUILD_BENCH=OFF -DCSXA_BUILD_EXAMPLES=OFF
  cmake --build build-ubsan -j "$(nproc)"
  (cd build-ubsan && UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --output-on-failure)
}

# The repository benchmark as its own package: its held-out ctest entries
# run every workload end to end on both backends (in-memory and durable
# shards) against the reference evaluator, traced and untraced.
stage_perfbench() {
  cmake -S perfbench -B .bench_build
  cmake --build .bench_build -j "$(nproc)"
  (cd .bench_build && ctest --output-on-failure)
}

# Shared-library smoke: -DCSXA_SHARED=ON builds every csxa_<subsystem>
# library as a shared object (BUILD_SHARED_LIBS + PIC). This catches
# missing link edges that static archives paper over — an undefined
# symbol that a .a would defer to final-binary link time fails at .so
# link time instead. A fast label subset proves the .so stack serves.
stage_shared() {
  cmake -B build-shared -S . -DCSXA_SHARED=ON -DCSXA_WERROR=ON \
    -DCSXA_BUILD_BENCH=OFF -DCSXA_BUILD_EXAMPLES=OFF
  cmake --build build-shared -j "$(nproc)"
  (cd build-shared && ctest --output-on-failure -L "unit|scengen")
}

stage="${1:-all}"
if [[ "$stage" == all ]]; then
  for s in "${STAGES[@]}"; do "stage_$s"; done
elif [[ " ${STAGES[*]} " == *" $stage "* ]]; then
  "stage_$stage"
else
  (IFS='|'; echo "usage: $0 [all|${STAGES[*]}]" >&2)
  exit 2
fi
