/// \file bench_load.cc
/// \brief Multi-tenant serving throughput under concurrent load.
///
/// Replays mixed query / policy-update / republish traffic from N
/// concurrent terminal sessions (workload::RunLoad) against the full
/// serving stack — CachingClient over AsyncDispatcher over a 4-shard
/// ShardedService — and sweeps the dispatcher worker count. The 1-worker
/// row is the single-threaded server baseline; the headline criterion is
/// aggregate modeled throughput at >=4 workers exceeding 2x that baseline,
/// measured by the same harness.
///
/// A second table times the dispatcher itself: one synchronous call on an
/// idle lane over a no-op backend, through the caller-runs Execute() and
/// through a Submit().get() hand-off to the lane's worker.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dsp/async.h"
#include "workload/load.h"

using namespace csxa;

namespace {

// A backend that does nothing: what a call costs is the dispatcher's own.
class NoopService : public dsp::Service {
 public:
  Result<dsp::Response> Execute(dsp::Request) override {
    return dsp::Response{};
  }
  dsp::ServiceStats stats() const override { return {}; }
};

// Median wall-clock nanoseconds of `call`, each call timed on its own
// after a warm-up, one call at a time so the lane is idle at every start.
template <typename Call>
double MedianCallNs(size_t calls, Call call) {
  for (size_t i = 0; i < calls / 10; ++i) call();
  std::vector<double> ns(calls);
  for (double& sample : ns) {
    const auto start = std::chrono::steady_clock::now();
    call();
    sample = std::chrono::duration<double, std::nano>(
                 std::chrono::steady_clock::now() - start)
                 .count();
  }
  std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
  return ns[ns.size() / 2];
}

void BenchIdleLaneCall() {
  const size_t calls = bench::Smoke(20000, 200);
  NoopService backend;
  dsp::AsyncDispatcher::Options opt;
  opt.workers = 2;
  dsp::AsyncDispatcher dispatcher(&backend, opt);
  dsp::Request request;
  request.op = dsp::Op::kPing;
  request.doc_id = "doc";

  const double execute_ns = MedianCallNs(
      calls, [&] { CSXA_CHECK(dispatcher.Execute(request).ok()); });
  const double submit_ns = MedianCallNs(
      calls, [&] { CSXA_CHECK(dispatcher.Submit(request).get().ok()); });

  std::printf("\n== One synchronous dispatcher call, idle lane, no-op "
              "backend (%zu calls each) ==\n", calls);
  bench::Table table({"path", "median us/call"});
  table.AddRow({"Execute (caller-runs)", bench::Fmt("%.2f", execute_ns / 1e3)});
  table.AddRow({"Submit().get() (worker hand-off)",
                bench::Fmt("%.2f", submit_ns / 1e3)});
  table.Print();
  bench::JsonReport::Get().Add("load/idle_lane_call/execute", execute_ns);
  bench::JsonReport::Get().Add("load/idle_lane_call/submit_get", submit_ns);
}

}  // namespace

int main() {
  std::printf("== Multi-tenant DSP load: %s ==\n",
              bench::SmokeMode() ? "smoke workload" : "full workload");

  workload::LoadOptions base;
  base.sessions = bench::Smoke(16, 8);
  base.ops_per_session = bench::Smoke(6, 2);
  base.shards = 4;
  base.spec.documents = bench::Smoke(6, 3);
  base.spec.doc.elements = bench::Smoke(200, 60);
  base.seed = 1;

  const std::vector<size_t> worker_sweep = bench::SmokeMode()
                                               ? std::vector<size_t>{1, 4}
                                               : std::vector<size_t>{1, 2, 4, 8};

  bench::Table table({"workers", "sessions", "ops", "fail", "thrpt ops/s",
                      "p50 ms", "p99 ms", "makespan ms", "imbalance",
                      "cache hit%", "wall s"});

  double baseline_throughput = 0;
  double best_throughput = 0;
  size_t best_workers = 0;
  for (size_t workers : worker_sweep) {
    workload::LoadOptions opt = base;
    opt.workers = workers;
    workload::LoadReport r = workload::RunLoad(opt);
    const uint64_t ops = r.queries + r.updates + r.publishes;
    const uint64_t lookups = r.cache_hits + r.cache_misses;
    const double hit_pct =
        lookups > 0 ? 100.0 * static_cast<double>(r.cache_hits) /
                          static_cast<double>(lookups)
                    : 0.0;
    table.AddRow({bench::Fmt("%zu", workers), bench::Fmt("%zu", r.sessions),
                  bench::Fmt("%llu", static_cast<unsigned long long>(ops)),
                  bench::Fmt("%llu", static_cast<unsigned long long>(r.failures)),
                  bench::Fmt("%.0f", r.throughput_ops_per_sec),
                  bench::Fmt("%.2f", r.p50_latency_ms),
                  bench::Fmt("%.2f", r.p99_latency_ms),
                  bench::Fmt("%.2f", r.modeled_makespan_seconds * 1e3),
                  bench::Fmt("%.2f", r.shard_imbalance),
                  bench::Fmt("%.1f", hit_pct),
                  bench::Fmt("%.2f", r.wall_seconds)});

    const std::string tag = "load/workers_" + std::to_string(workers);
    bench::JsonReport::Get().Add(tag, r.modeled_makespan_seconds * 1e9,
                                 r.throughput_ops_per_sec, 0.0,
                                 r.shard_imbalance);
    bench::JsonReport::Get().AddValue(tag + "/p50_ms", r.p50_latency_ms);
    bench::JsonReport::Get().AddValue(tag + "/p99_ms", r.p99_latency_ms);
    bench::JsonReport::Get().AddValue(tag + "/failures",
                                      static_cast<double>(r.failures));

    if (workers == 1) baseline_throughput = r.throughput_ops_per_sec;
    if (workers >= 4 && r.throughput_ops_per_sec > best_throughput) {
      best_throughput = r.throughput_ops_per_sec;
      best_workers = workers;
    }
  }
  table.Print();

  if (baseline_throughput > 0 && best_workers > 0) {
    const double speedup = best_throughput / baseline_throughput;
    std::printf("\n%zu workers vs single-threaded baseline: %.2fx aggregate "
                "modeled throughput (%zu concurrent sessions)\n",
                best_workers, speedup, base.sessions);
    bench::JsonReport::Get().AddValue("load/speedup_vs_single_thread", speedup);
  }

  BenchIdleLaneCall();
  return 0;
}
