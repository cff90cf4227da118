/// \file bench_fault.cc
/// \brief Degraded-mode serving cost of the replicated DSP fabric.
///
/// Runs the full decorator stack (RetryingClient over CachingClient over
/// AsyncDispatcher over a 3-replica ReplicatedService of fault-injected
/// 2-shard fleets) through workload::RunLoad twice per worker count: once
/// healthy, once under the scripted fault schedule (a backup crash
/// mid-run, a later partition, sprinkled lost responses). The headline
/// criterion is that degraded-mode modeled throughput stays within 2x of
/// healthy-mode at >= 4 workers — the price of riding out faults is
/// retries and reroutes, not collapse — with zero failed operations and
/// zero stale reads in both modes.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workload/load.h"

using namespace csxa;

namespace {

workload::LoadOptions BaseOptions() {
  workload::LoadOptions opt;
  opt.sessions = bench::Smoke(12, 6);
  opt.ops_per_session = bench::Smoke(8, 3);
  opt.shards = 2;
  opt.spec.documents = bench::Smoke(6, 3);
  opt.spec.doc.elements = bench::Smoke(200, 60);
  opt.seed = 17;
  opt.replicas = 3;
  opt.retry_attempts = 8;
  return opt;
}

workload::LoadOptions Degraded(workload::LoadOptions opt) {
  const uint64_t total_ops =
      static_cast<uint64_t>(opt.sessions) * opt.ops_per_session;
  opt.faults.enabled = true;
  opt.faults.crash_replica = 1;
  opt.faults.crash_at_op = total_ops / 8;
  opt.faults.crash_heal_at_op = total_ops * 3 / 8;
  opt.faults.partition_replica = 2;
  opt.faults.partition_at_op = total_ops / 2;
  opt.faults.partition_heal_at_op = total_ops * 3 / 4;
  opt.faults.timeout_probability = 0.05;
  return opt;
}

}  // namespace

int main() {
  std::printf("== Replicated fabric under faults: %s ==\n",
              bench::SmokeMode() ? "smoke workload" : "full workload");

  const std::vector<size_t> worker_sweep =
      bench::SmokeMode() ? std::vector<size_t>{4} : std::vector<size_t>{1, 4};

  bench::Table table({"mode", "workers", "ops", "fail", "thrpt ops/s",
                      "retries", "reroutes", "promote", "reinteg",
                      "stale det", "stale srv", "faults"});

  double healthy_at_4 = 0, degraded_at_4 = 0;
  bool invariants_held = true;
  for (size_t workers : worker_sweep) {
    for (const bool degraded : {false, true}) {
      workload::LoadOptions opt =
          degraded ? Degraded(BaseOptions()) : BaseOptions();
      opt.workers = workers;
      workload::LoadReport r = workload::RunLoad(opt);
      const uint64_t ops = r.queries + r.updates + r.publishes;
      const char* mode = degraded ? "degraded" : "healthy";
      table.AddRow(
          {mode, bench::Fmt("%zu", workers),
           bench::Fmt("%llu", static_cast<unsigned long long>(ops)),
           bench::Fmt("%llu", static_cast<unsigned long long>(r.failures)),
           bench::Fmt("%.0f", r.throughput_ops_per_sec),
           bench::Fmt("%llu", static_cast<unsigned long long>(r.retries)),
           bench::Fmt("%llu",
                      static_cast<unsigned long long>(r.replica_read_reroutes)),
           bench::Fmt("%llu",
                      static_cast<unsigned long long>(r.primary_promotions)),
           bench::Fmt("%llu", static_cast<unsigned long long>(r.reintegrations)),
           bench::Fmt("%llu",
                      static_cast<unsigned long long>(r.stale_reads_detected)),
           bench::Fmt("%llu",
                      static_cast<unsigned long long>(r.stale_reads_served)),
           bench::Fmt("%llu",
                      static_cast<unsigned long long>(r.faults_injected))});

      const std::string tag =
          std::string("fault/") + mode + "/workers_" + std::to_string(workers);
      bench::JsonReport::Get().Add(tag, r.modeled_makespan_seconds * 1e9,
                                   r.throughput_ops_per_sec, 0.0, 0.0);
      bench::JsonReport::Get().AddValue(tag + "/failures",
                                        static_cast<double>(r.failures));
      bench::JsonReport::Get().AddValue(
          tag + "/stale_reads_served", static_cast<double>(r.stale_reads_served));
      bench::JsonReport::Get().AddValue(tag + "/retries",
                                        static_cast<double>(r.retries));
      bench::JsonReport::Get().AddValue(
          tag + "/reintegrations", static_cast<double>(r.reintegrations));

      if (r.failures != 0 || r.stale_reads_served != 0) invariants_held = false;
      if (workers == 4) {
        (degraded ? degraded_at_4 : healthy_at_4) = r.throughput_ops_per_sec;
      }
    }
  }
  table.Print();

  const double ratio =
      degraded_at_4 > 0 ? healthy_at_4 / degraded_at_4 : 0.0;
  bench::JsonReport::Get().AddValue("fault/healthy_over_degraded_at_4", ratio);
  std::printf(
      "\nheadline: healthy/degraded throughput at 4 workers = %.2fx "
      "(criterion: <= 2x), invariants (0 failures, 0 stale serves): %s\n",
      ratio, invariants_held ? "held" : "VIOLATED");
  return invariants_held && ratio <= 2.0 ? 0 : 1;
}
