#!/usr/bin/env bash
# Tier-1 verify: the exact line ROADMAP.md specifies. Run locally before
# pushing, or as the CI entrypoint. Exits non-zero on any configure,
# build, or test failure.
set -euo pipefail

cd "$(dirname "$0")/.."

# Docs first: a broken intra-repo link fails fast, before the build.
./scripts/check_links.sh

# -Werror in CI only: the tree is warning-clean and must stay so; local
# builds keep plain -Wall -Wextra so experiments aren't blocked.
cmake -B build -S . -DCSXA_WERROR=ON
cmake --build build -j
cd build
ctest --output-on-failure -j "$(nproc)"

# The transport layer (dsp::Service protocol, sharding, caching, the miss
# window) gates separately so a regression names itself in CI logs, as
# does the fetch planner (the per-chunk / first-run / owner-plan /
# learned-plan differential suite) and the scenario generator
# (seed-stability and oracle properties plus the IoT-fleet / e-health
# acceptance runs).
ctest --output-on-failure -L transport
ctest --output-on-failure -L planner
ctest --output-on-failure -L scengen
cd ..

# ThreadSanitizer pass over the serving-stack suites: the transport,
# concurrency, fault, planner, durable and scengen labels exercise the
# shared caches, sharded stores, the async dispatcher, the replicated
# fabric (failover, catch-up, retry storms), the multi-span planned fetch
# path, the durable block store and the generated-scenario load runs from
# many threads — TSan turns latent races into failures. Separate build dir
# (instrumentation is ABI-incompatible); benches and examples are skipped
# to keep the instrumented build small.
cmake -B build-tsan -S . -DCSXA_SANITIZE=thread \
  -DCSXA_BUILD_BENCH=OFF -DCSXA_BUILD_EXAMPLES=OFF
cmake --build build-tsan -j
(cd build-tsan && ctest --output-on-failure -L "transport|concurrency|fault|durable|planner|scengen")
# The dispatcher hands a lane between an Execute() caller running inline and
# the lane's worker; repeat its suite so TSan sees many interleavings.
build-tsan/tests/concurrency_test --gtest_filter='*AsyncDispatcher*' --gtest_repeat=200

# AddressSanitizer pass over the durable store: the block layer, crash
# recovery and quarantine paths shuffle raw buffers, truncate files and
# replay torn tails — exactly where an off-by-one reads out of bounds. The
# transport label adds the backend-parity suite, whose DurableServer leg
# serves the same protocol core from lazily loaded blobs, and the unit
# label adds crypto_test, whose AES-NI / SHA-NI legs do 16-byte intrinsic
# loads and stores at every buffer length. The planner and fuzz labels
# cover soe::PlannedProvider, which moves chunks out of its buffer, fed
# owner, learned and corrupted plans; the fuzz label also decodes mutated
# documents through 7-, 13- and 64-byte chunk windows. The property label
# adds chunking_invariance_test, whose chunk sizes 64-4096 (97 and 300
# among them) put the document decoder's byte-window edge at every
# offset: its reads fall back from the window to ReadExact there.
cmake -B build-asan -S . -DCSXA_SANITIZE=address \
  -DCSXA_BUILD_BENCH=OFF -DCSXA_BUILD_EXAMPLES=OFF
cmake --build build-asan -j
(cd build-asan && ctest --output-on-failure -L "durable|transport|unit|planner|fuzz|property")

# UndefinedBehaviorSanitizer pass over every label: shifts, overflows,
# misaligned loads and bad enum values anywhere in the tree. UBSan only
# reports by default; halt_on_error turns a report into a test failure.
cmake -B build-ubsan -S . -DCSXA_SANITIZE=undefined \
  -DCSXA_BUILD_BENCH=OFF -DCSXA_BUILD_EXAMPLES=OFF
cmake --build build-ubsan -j
(cd build-ubsan && UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ctest --output-on-failure)

# The repository benchmark as its own package: its held-out ctest entries
# run every workload end to end on both backends (in-memory and durable
# shards) against the reference evaluator, traced and untraced.
cmake -S perfbench -B .bench_build
cmake --build .bench_build -j
(cd .bench_build && ctest --output-on-failure)

# Shared-library smoke: -DCSXA_SHARED=ON builds every csxa_<subsystem>
# library as a shared object (BUILD_SHARED_LIBS + PIC). This catches
# missing link edges that static archives paper over — an undefined
# symbol that a .a would defer to final-binary link time fails at .so
# link time instead. A fast label subset proves the .so stack serves.
cmake -B build-shared -S . -DCSXA_SHARED=ON \
  -DCSXA_BUILD_BENCH=OFF -DCSXA_BUILD_EXAMPLES=OFF
cmake --build build-shared -j
(cd build-shared && ctest --output-on-failure -L "unit|scengen")
