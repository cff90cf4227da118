// The repository benchmark: drives the real serving stack with two closed-loop
// card-holder sessions and prints every metric by name, unit and clock.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--report <file.json>] [--spans <file.jsonl>] [--meta k=v]...
//
// --trace 0 measures the end-to-end metrics on the untraced stack.
// --trace 1 first replays a fixed operation sequence on an untraced and a
// traced stack and requires identical views and counts, then measures the
// per-layer metrics on the traced stack. The last line of standard output
// is the JSON result; the exit code is non-zero when any operation failed
// or any check did not hold.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "crypto/sha256.h"
#include "driver.h"
#include "scengen/spec.h"
#include "stack.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace scengen = csxa::scengen;

// Set-up is repeated at least kMinSetups times and until kMinSetupSeconds
// have passed (at most kMaxSetups times), and the median is reported, so
// that a small fleet's set-up is still timed over many samples.
constexpr size_t kMinSetups = 5;
constexpr size_t kMaxSetups = 50;
constexpr double kMinSetupSeconds = 2.0;
// Length of the owner phase of a read-only workload, as a share of the
// timed window.
constexpr double kOwnerPhaseShare = 0.5;
// Traced and untraced per-operation self times must add up to the
// operation's span within this share.
constexpr double kMaxSelfSumError = 0.05;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string report_path;
  std::string spans_path;
  std::vector<std::string> meta;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 600) {
        return std::nullopt;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--report") {
      args.report_path = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else if (flag == "--meta") {
      args.meta.push_back(value);
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload) return std::nullopt;
  return args;
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// The process's peak resident set, from VmHWM in /proc/self/status.
// getrusage's ru_maxrss is not used: Linux carries it over an exec, so it
// also covers the process that started this one (run.py's interpreter,
// larger than a small workload's stack).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in KiB
    }
  }
  return 0;
}

std::string Hex(const csxa::crypto::Digest& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (uint8_t b : digest) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 15]);
  }
  return out;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Restricts the process to the first `n` CPUs it may run on and returns
// their numbers. Every thread inherits the restriction.
//
// The closed loop never has more than kSessions runnable threads for long
// (a session waits while a dispatcher worker serves it), so kSessions CPUs
// carry its load. Left free, the threads wandered over every CPU of a
// 4-vCPU VM, and a hand-off between them could wait for a vCPU the
// hypervisor had lent to a neighbouring machine: iot_fleet's median query
// latency then moved by 25% from one run to the next, against 6% when
// restricted. On one CPU a session waiting for the dispatcher lets the
// other session run, so latencies depended on how the two interleaved.
std::string PinToFirstCpus(size_t n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return "all";
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  std::string names;
  size_t taken = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && taken < n; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &chosen);
    ++taken;
    names += (names.empty() ? "" : ",") + std::to_string(cpu);
  }
  if (sched_setaffinity(0, sizeof(chosen), &chosen) != 0) return "all";
  return names;
}

// --- Metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string clock;  // wall, modeled or count
};

std::string MetricsJson(const std::vector<Metric>& metrics, bool with_clock) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit);
    if (with_clock) out += ", \"clock\": " + JsonString(m.clock);
    out += "}";
  }
  return out + "}";
}

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string clock) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit),
                              std::move(clock)});
  }
  /// A figure printed and written to the report file but left out of the
  /// JSON result, which carries only the metrics BENCHMARK.json bounds.
  void Detail(std::string name, double value, std::string unit,
              std::string clock) {
    details_.push_back(Metric{std::move(name), value, std::move(unit),
                              std::move(clock)});
  }
  void Meta(std::string key, std::string value) {
    meta_.emplace_back(std::move(key), std::move(value));
  }
  void Note(std::string line) { notes_.push_back(std::move(line)); }

  void Print() const {
    for (const auto& [k, v] : meta_) std::printf("meta %s = %s\n", k.c_str(), v.c_str());
    for (const std::string& n : notes_) std::printf("%s\n", n.c_str());
    for (const auto* list : {&metrics_, &details_}) {
      const char* kind = list == &metrics_ ? "metric" : "detail";
      for (const Metric& m : *list) {
        std::printf("%s %-44s %16.6f %-8s [%s]\n", kind, m.name.c_str(),
                    m.value, m.unit.c_str(), m.clock.c_str());
      }
    }
  }

  std::string Json(bool with_clock) const {
    return MetricsJson(metrics_, with_clock);
  }
  std::string DetailsJson() const { return MetricsJson(details_, true); }

  std::string MetaJson() const {
    std::string out = "{";
    for (size_t i = 0; i < meta_.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonString(meta_[i].first) + ": " + JsonString(meta_[i].second);
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> details_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::string> notes_;
};

// --- Correctness ------------------------------------------------------------

struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  uint64_t requeries = 0;
  std::vector<std::string> problems;  // first few, for the log
  bool checks_hold = true;  // the traced run's replay and self-time checks
};

void CheckOps(const std::vector<OpRecord>& ops, World* world, Oracle* oracle,
              Verdict* verdict) {
  for (const OpRecord& op : ops) {
    ++verdict->attempted;
    verdict->requeries += op.requeries;
    const DocState& doc = *world->docs()[op.doc];
    bool good = op.ok;
    if (good && op.kind == OpKind::kQuery && !oracle->Check(op, doc)) {
      good = false;
      ++verdict->mismatched;
      if (verdict->problems.size() < 5) {
        verdict->problems.push_back("view mismatch: " + doc.doc_id +
                                    " subject " + doc.subjects[op.subject] +
                                    " query " + std::to_string(op.query));
      }
    }
    if (!good) {
      ++verdict->failed;
      if (!op.ok && verdict->problems.size() < 5) {
        verdict->problems.push_back(
            "failed op on " + doc.doc_id + " (writes " + std::to_string(op.lo) +
            ".." + std::to_string(op.hi) + "): " + op.error);
      }
    }
  }
}

void CheckStack(const Stack& stack, Verdict* verdict) {
  const csxa::dsp::ReplicationStats rs = stack.replicated().replication_stats();
  if (rs.stale_reads_served != 0) {
    verdict->failed += rs.stale_reads_served;
    verdict->problems.push_back("stale reads served: " +
                                std::to_string(rs.stale_reads_served));
  }
  if (stack.retry().exhausted() != 0) {
    verdict->failed += stack.retry().exhausted();
    verdict->problems.push_back("retry budget exhausted: " +
                                std::to_string(stack.retry().exhausted()));
  }
}

// --- Set-up -----------------------------------------------------------------

struct Deployment {
  std::unique_ptr<scengen::GeneratedScenario> gen;
  std::unique_ptr<World> world;
  double setup_seconds = 0;
};

// Scenario build plus the initial publish of the fleet, timed.
Deployment Deploy(const WorkloadDef& def, uint64_t seed, Tracer* tracer) {
  Deployment d;
  const int64_t start = NowNs();
  d.gen = std::make_unique<scengen::GeneratedScenario>(
      scengen::BuildScenario(def.spec));
  d.world = std::make_unique<World>(def.backend, d.gen.get(), seed, tracer);
  const csxa::Status published = d.world->Publish();
  d.setup_seconds = SecondsSince(start);
  if (!published.ok()) {
    std::fprintf(stderr, "set-up publish failed: %s\n",
                 published.ToString().c_str());
    std::exit(2);
  }
  return d;
}

std::vector<Session> MakeSessions(World* world, uint64_t seed) {
  std::vector<Session> sessions;
  sessions.reserve(kSessions);
  for (size_t k = 0; k < kSessions; ++k) sessions.emplace_back(world, k, seed);
  return sessions;
}

Mix LoopMix(const WorkloadDef& def) {
  return Mix{def.spec.churn.update_fraction, def.spec.churn.publish_fraction};
}

// --- Timed phases -----------------------------------------------------------

struct Phases {
  std::vector<OpRecord> warmup;
  std::vector<OpRecord> window;
  std::vector<OpRecord> owner;  // read-only workloads only
  int64_t window_start_ns = 0;
  int64_t window_end_ns = 0;
  double peak_rss_mb = 0;  // after set-up and warm-up
};

Phases RunPhases(const WorkloadDef& def, std::vector<Session>* sessions,
                 double seconds) {
  Phases p;
  // Owners take turns so that one owner's publish never queues another's
  // update behind the replication write lock. Half of the owner phase runs
  // before the timed loop and half after it, so that one slow stretch of
  // the host does not set every write figure.
  auto owner_block = [&] {
    if (!def.owner_phase) return;
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(kOwnerPhaseShare / 2 * seconds * 1e9);
    for (OpRecord& op : RunSequential(sessions, Mix{0.5, 0.5}, deadline)) {
      p.owner.push_back(std::move(op));
    }
  };
  const Mix mix = LoopMix(def);
  // Warm-up fills the cache and the terminals' card state before timing.
  // It is a fixed amount of work, and the peak resident set is read right
  // after it: read at the end, it would grow with the number of writes the
  // host let the timed loop make.
  p.warmup = RunClosedLoop(sessions, mix, def.warmup_ops);
  p.peak_rss_mb = PeakRssMb();
  owner_block();
  p.window_start_ns = NowNs();
  p.window = RunClosedLoop(
      sessions, mix, p.window_start_ns + static_cast<int64_t>(seconds * 1e9));
  p.window_end_ns = NowNs();
  owner_block();
  return p;
}

std::vector<double> Latencies(const std::vector<OpRecord>& ops, OpKind kind,
                              bool modeled) {
  std::vector<double> out;
  for (const OpRecord& op : ops) {
    if (op.kind != kind || !op.ok) continue;
    out.push_back(modeled ? op.card.total_seconds * 1e3 : op.wall_ms());
  }
  return out;
}

// Operations completed per second of the timed loop.
double OpsPerSecond(const Phases& p) {
  uint64_t done = 0;
  for (const OpRecord& op : p.window) done += op.ok ? 1 : 0;
  const double seconds =
      static_cast<double>(p.window_end_ns - p.window_start_ns) / 1e9;
  return seconds > 0 ? static_cast<double>(done) / seconds : 0;
}

// --- End-to-end run (--trace 0) ----------------------------------------------

void AddEndToEnd(const Phases& p, double setup_s, Report* report) {
  const std::vector<OpRecord>& writes =
      p.owner.empty() ? p.window : p.owner;
  const auto q = Latencies(p.window, OpKind::kQuery, false);
  const auto qm = Latencies(p.window, OpKind::kQuery, true);
  const auto u = Latencies(writes, OpKind::kUpdate, false);
  const auto w = Latencies(writes, OpKind::kPublish, false);
  report->Add("query_p50_ms", Percentile(q, 0.5), "ms", "wall");
  report->Add("update_p50_ms", Percentile(u, 0.5), "ms", "wall");
  report->Add("publish_p50_ms", Percentile(w, 0.5), "ms", "wall");
  report->Add("query_modeled_p50_ms", Percentile(qm, 0.50), "ms", "modeled");
  report->Add("query_modeled_p99_ms", Percentile(qm, 0.99), "ms", "modeled");
  report->Add("setup_s", setup_s, "s", "wall");
  report->Add("peak_rss_mb", p.peak_rss_mb, "MB", "count");
  // Throughput and wall-clock tails are reported without a bound: they
  // move with how the two sessions' operations happen to overlap and with
  // the host's load more than the bounds allow (see README.md).
  report->Detail("ops_per_s", OpsPerSecond(p), "1/s", "wall");
  for (const auto& [name, values] :
       {std::pair{"query", &q}, std::pair{"update", &u},
        std::pair{"publish", &w}}) {
    report->Detail(std::string(name) + "_p90_ms", Percentile(*values, 0.9),
                   "ms", "wall");
    report->Detail(std::string(name) + "_p99_ms", Percentile(*values, 0.99),
                   "ms", "wall");
  }
  report->Note("samples queries=" + std::to_string(q.size()) +
               " updates=" + std::to_string(u.size()) +
               " publishes=" + std::to_string(w.size()));
}

// --- Per-layer analysis (--trace 1) -------------------------------------------

struct LayerStats {
  uint64_t calls = 0;
  uint64_t failed = 0;
  double self_ns = 0;
  uint64_t read_calls = 0, write_calls = 0;
  double read_self_ns = 0, write_self_ns = 0;
};

bool IsWriteOp(uint8_t op) {
  using csxa::dsp::Op;
  return op == static_cast<uint8_t>(Op::kPublish) ||
         op == static_cast<uint8_t>(Op::kUpdateRules) ||
         op == static_cast<uint8_t>(Op::kRemove);
}

struct SpanAnalysis {
  std::vector<LayerStats> layers = std::vector<LayerStats>(
      static_cast<size_t>(Layer::kCount));
  double op_ns = 0;             // sum of operation root spans
  double max_sum_error = 0;     // worst |sum(self) - root| / root
  uint64_t ops = 0;
  uint64_t replicate_writes = 0;
};

// Self time of a span: its duration minus the part of it its children
// cover (children clipped to the parent, overlaps merged).
SpanAnalysis AnalyzeSpans(const std::vector<Span>& spans,
                          const std::set<uint64_t>& ops) {
  SpanAnalysis a;
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  std::unordered_map<uint64_t, std::pair<double, double>> per_op;  // root, sum
  for (size_t i = 0; i < spans.size(); ++i) {
    if (ops.count(spans[i].op) == 0) continue;
    children[spans[i].parent].push_back(i);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (ops.count(s.op) == 0) continue;
    std::vector<std::pair<int64_t, int64_t>> covered;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (size_t c : it->second) {
        const int64_t b = std::max(spans[c].start_ns, s.start_ns);
        const int64_t e = std::min(spans[c].end_ns, s.end_ns);
        if (e > b) covered.emplace_back(b, e);
      }
    }
    std::sort(covered.begin(), covered.end());
    int64_t cover = 0, cur_b = 0, cur_e = -1;
    for (const auto& [b, e] : covered) {
      if (b > cur_e) {
        if (cur_e > cur_b) cover += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) cover += cur_e - cur_b;
    const double self = static_cast<double>(s.end_ns - s.start_ns - cover);

    LayerStats& ls = a.layers[static_cast<size_t>(s.layer)];
    ++ls.calls;
    if (!s.ok) ++ls.failed;
    ls.self_ns += self;
    if (IsWriteOp(s.dsp_op)) {
      ++ls.write_calls;
      ls.write_self_ns += self;
    } else {
      ++ls.read_calls;
      ls.read_self_ns += self;
    }
    if (s.layer == Layer::kReplicate && IsWriteOp(s.dsp_op)) {
      ++a.replicate_writes;
    }
    auto& op = per_op[s.op];
    op.second += self;
    if (IsOpLayer(s.layer)) {
      op.first = static_cast<double>(s.end_ns - s.start_ns);
      a.op_ns += op.first;
    }
  }
  for (const auto& [id, op] : per_op) {
    ++a.ops;
    if (op.first > 0) {
      a.max_sum_error =
          std::max(a.max_sum_error, std::abs(op.second - op.first) / op.first);
    }
  }
  return a;
}

// Counters of the stack that a phase moves; deltas are taken around it.
struct Counters {
  uint64_t cache_hits = 0, cache_misses = 0;
  uint64_t cache_revalidations = 0;   // cached version had moved
  uint64_t cache_fanout_drops = 0;    // entries dropped by notifications
  uint64_t retries = 0, fanout_delivered = 0;
  std::vector<uint64_t> shard_requests;

  static Counters Of(const Stack& s) {
    Counters c;
    c.cache_hits = s.cache().hits();
    c.cache_misses = s.cache().misses();
    c.cache_revalidations = s.cache().invalidations();
    c.cache_fanout_drops = s.cache().fanout_invalidations();
    c.retries = s.retry().retries();
    c.fanout_delivered = s.fanout().delivered();
    c.shard_requests = s.shard_requests();
    return c;
  }
};

// What the traced and untraced replays must agree on.
struct ReplayOutcome {
  std::vector<OpRecord> ops;
  Counters counters;
  double makespan_s = 0;
  uint64_t stored_bytes = 0;
};

// The replay draws from a stream of its own, so the timed phases that
// follow it start from the same operations as a run without a replay.
ReplayOutcome Replay(const WorkloadDef& def, Deployment* d, uint64_t seed,
                     Verdict* verdict) {
  World* world = d->world.get();
  std::vector<Session> sessions =
      MakeSessions(world, seed ^ 0x5265706c6179ull);
  ReplayOutcome out;
  out.ops = RunSequential(&sessions, LoopMix(def), def.replay_ops);
  out.counters = Counters::Of(world->stack());
  out.makespan_s = world->stack().dispatcher().modeled_makespan_seconds();
  out.stored_bytes = world->stack().StoredBytes();
  Oracle oracle(*d->gen);
  CheckOps(out.ops, world, &oracle, verdict);
  return out;
}

// The timed phases on a deployment, every operation checked afterwards.
struct Measured {
  Phases phases;
  Counters before;
  Counters after;
};

Measured MeasureAndCheck(const WorkloadDef& def, Deployment* d, uint64_t seed,
                         double seconds, Verdict* verdict) {
  World* world = d->world.get();
  std::vector<Session> sessions = MakeSessions(world, seed);
  Measured m;
  m.before = Counters::Of(world->stack());
  m.phases = RunPhases(def, &sessions, seconds);
  m.after = Counters::Of(world->stack());
  Oracle oracle(*d->gen);
  for (const auto* phase : {&m.phases.warmup, &m.phases.window, &m.phases.owner}) {
    CheckOps(*phase, world, &oracle, verdict);
  }
  CheckStack(world->stack(), verdict);
  return m;
}

std::string ScenarioHash(const scengen::GeneratedScenario& gen) {
  return Hex(csxa::crypto::Sha256::Hash(csxa::Span(gen.Fingerprint())));
}

// Lists every difference between the two replays (empty when identical).
std::vector<std::string> CompareReplays(const ReplayOutcome& a,
                                        const ReplayOutcome& b) {
  std::vector<std::string> diffs;
  if (a.ops.size() != b.ops.size()) {
    diffs.push_back("operation counts differ");
    return diffs;
  }
  for (size_t i = 0; i < a.ops.size(); ++i) {
    const OpRecord& x = a.ops[i];
    const OpRecord& y = b.ops[i];
    const bool same =
        x.kind == y.kind && x.doc == y.doc && x.ok == y.ok &&
        x.view_hash == y.view_hash &&
        x.card.total_seconds == y.card.total_seconds &&
        x.card.dsp_round_trips == y.card.dsp_round_trips &&
        x.card.bytes_decrypted == y.card.bytes_decrypted &&
        x.terminal_dsp_round_trips == y.terminal_dsp_round_trips &&
        x.apdu_exchanges == y.apdu_exchanges && x.user_bytes == y.user_bytes;
    if (!same) diffs.push_back("operation " + std::to_string(i) + " differs");
  }
  const Counters& p = a.counters;
  const Counters& q = b.counters;
  if (p.cache_hits != q.cache_hits || p.cache_misses != q.cache_misses ||
      p.cache_revalidations != q.cache_revalidations ||
      p.cache_fanout_drops != q.cache_fanout_drops) {
    diffs.push_back("cache counters differ");
  }
  if (p.retries != q.retries || p.fanout_delivered != q.fanout_delivered ||
      p.shard_requests != q.shard_requests) {
    diffs.push_back("retry, fan-out or shard counters differ");
  }
  if (a.makespan_s != b.makespan_s) diffs.push_back("modeled makespan differs");
  if (a.stored_bytes != b.stored_bytes) diffs.push_back("stored bytes differ");
  return diffs;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"dsp_op\":%u,\"ok\":%s}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), LayerName(s.layer),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned>(s.dsp_op), s.ok ? "true" : "false");
  }
  std::fclose(f);
}

void AddPerLayer(const Measured& m, const SpanAnalysis& a,
                 const ReplayOutcome& replay, const World& world,
                 Report* report) {
  const Phases& p = m.phases;
  const Counters& before = m.before;
  const Counters& after = m.after;
  auto layer = [&](Layer l) -> const LayerStats& {
    return a.layers[static_cast<size_t>(l)];
  };
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  // Card-side counts over the window's queries.
  double queries = 0, bytes_decrypted = 0, events = 0, fetched = 0,
         avoided = 0, transfer = 0, crypto = 0, evaluator = 0, round_trip = 0,
         trips = 0, apdus = 0, writes = 0;
  for (const auto* phase : {&p.window, &p.owner}) {
    for (const OpRecord& op : *phase) {
      if (!op.ok) continue;
      if (op.kind != OpKind::kQuery) {
        ++writes;
        continue;
      }
      ++queries;
      bytes_decrypted += static_cast<double>(op.card.bytes_decrypted);
      events += static_cast<double>(op.card.evaluator.events);
      fetched += static_cast<double>(op.card.chunks_fetched);
      avoided += static_cast<double>(op.card.chunks_avoided);
      transfer += op.card.transfer_seconds;
      crypto += op.card.crypto_seconds;
      evaluator += op.card.evaluator_seconds;
      round_trip += op.card.round_trip_seconds;
      trips += static_cast<double>(op.card.dsp_round_trips);
      apdus += static_cast<double>(op.apdu_exchanges);
    }
  }
  const double ops = static_cast<double>(a.ops);

  report->Add("soe.self_ms_per_query",
              per(layer(Layer::kSoe).self_ns, queries) / 1e6, "ms", "wall");
  report->Add("soe.bytes_decrypted_per_query", per(bytes_decrypted, queries),
              "B", "count");
  report->Add("soe.skip_ratio", per(avoided, fetched + avoided), "ratio",
              "count");
  report->Add("soe.evaluator_events_per_query", per(events, queries),
              "events", "count");
  report->Add("soe.modeled.transfer_ms_per_query", per(transfer, queries) * 1e3,
              "ms", "modeled");
  report->Add("soe.modeled.crypto_ms_per_query", per(crypto, queries) * 1e3,
              "ms", "modeled");
  report->Add("soe.modeled.evaluator_ms_per_query",
              per(evaluator, queries) * 1e3, "ms", "modeled");
  report->Add("soe.modeled.round_trip_ms_per_query",
              per(round_trip, queries) * 1e3, "ms", "modeled");
  report->Add("soe.dsp_round_trips_per_query", per(trips, queries), "trips",
              "count");
  report->Add("proxy.apdu_exchanges_per_query", per(apdus, queries), "apdus",
              "count");
  report->Add("pki.provision.self_us",
              per(layer(Layer::kProvision).self_ns,
                  static_cast<double>(layer(Layer::kProvision).calls)) / 1e3,
              "us", "wall");
  report->Add("proxy.publish.self_ms",
              per(layer(Layer::kPublish).self_ns,
                  static_cast<double>(layer(Layer::kPublish).calls)) / 1e6,
              "ms", "wall");
  report->Add("proxy.update.self_ms",
              per(layer(Layer::kUpdate).self_ns,
                  static_cast<double>(layer(Layer::kUpdate).calls)) / 1e6,
              "ms", "wall");

  const std::pair<Layer, const char*> dsp_layers[] = {
      {Layer::kRetry, "retry"},         {Layer::kCache, "cache"},
      {Layer::kDispatch, "dispatch"},   {Layer::kReplicate, "replicate"},
      {Layer::kShard, "shard"},         {Layer::kStore, "store"}};
  for (const auto& [l, name] : dsp_layers) {
    const LayerStats& ls = layer(l);
    const std::string prefix = std::string("dsp.") + name;
    report->Add(prefix + ".calls", per(static_cast<double>(ls.calls), ops),
                "1/op", "count");
    report->Add(prefix + ".self_us_per_call",
                per(ls.self_ns, static_cast<double>(ls.calls)) / 1e3, "us",
                "wall");
    report->Add(prefix + ".failed", static_cast<double>(ls.failed), "count",
                "count");
  }
  report->Add("dsp.retry.retries",
              static_cast<double>(after.retries - before.retries), "count",
              "count");
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double revalidations = static_cast<double>(
      after.cache_revalidations - before.cache_revalidations);
  const double lookups =
      hits + revalidations +
      static_cast<double>(after.cache_misses - before.cache_misses);
  report->Add("dsp.cache.hit_ratio", per(hits, lookups), "ratio", "count");
  report->Add("dsp.cache.invalidations",
              per(revalidations +
                      static_cast<double>(after.cache_fanout_drops -
                                          before.cache_fanout_drops),
                  ops),
              "1/op", "count");
  report->Add("dsp.dispatch.wait_us_per_call",
              per(layer(Layer::kDispatch).self_ns,
                  static_cast<double>(layer(Layer::kDispatch).calls)) / 1e3,
              "us", "wall");
  report->Add("dsp.dispatch.modeled_makespan_s", replay.makespan_s, "s",
              "modeled");
  report->Add("dsp.replicate.store_calls_per_write",
              per(static_cast<double>(layer(Layer::kStore).write_calls),
                  static_cast<double>(a.replicate_writes)),
              "calls", "count");
  uint64_t shard_total = 0, shard_max = 0;
  for (size_t i = 0; i < after.shard_requests.size(); ++i) {
    const uint64_t n = after.shard_requests[i] - before.shard_requests[i];
    shard_total += n;
    shard_max = std::max(shard_max, n);
  }
  report->Add("dsp.shard.imbalance",
              per(static_cast<double>(shard_max * after.shard_requests.size()),
                  static_cast<double>(shard_total)),
              "ratio", "count");
  const LayerStats& store = layer(Layer::kStore);
  report->Add("dsp.store.read_self_us",
              per(store.read_self_ns, static_cast<double>(store.read_calls)) /
                  1e3,
              "us", "wall");
  report->Add("dsp.store.write_self_us",
              per(store.write_self_ns, static_cast<double>(store.write_calls)) /
                  1e3,
              "us", "wall");
  report->Add("dsp.store.bytes_written_per_user_byte",
              per(static_cast<double>(world.stack().StoredBytes()),
                  static_cast<double>(world.user_bytes())),
              "ratio", "count");
  report->Add("dissem.fanout.delivered",
              per(static_cast<double>(after.fanout_delivered -
                                      before.fanout_delivered),
                  writes),
              "1/write", "count");
  report->Add("dissem.fanout.self_us",
              per(layer(Layer::kFanout).self_ns,
                  static_cast<double>(layer(Layer::kFanout).calls)) / 1e3,
              "us", "wall");

  // Each layer's share of operation wall time: the "why" of each workload,
  // measured rather than assumed.
  for (size_t l = 0; l < static_cast<size_t>(Layer::kCount); ++l) {
    const Layer layer_id = static_cast<Layer>(l);
    if (layer_id == Layer::kOpUpdate || layer_id == Layer::kOpPublish) continue;
    double self = a.layers[l].self_ns;
    std::string name = LayerName(layer_id);
    if (layer_id == Layer::kOpQuery) {
      // Client-side time between the layers, all operation kinds together.
      self += a.layers[static_cast<size_t>(Layer::kOpUpdate)].self_ns +
              a.layers[static_cast<size_t>(Layer::kOpPublish)].self_ns;
      name = "client";
    }
    report->Add("share." + name + "_pct", per(self, a.op_ns) * 100, "%",
                "wall");
  }

  uint64_t requeries = 0;
  for (const auto* phase : {&p.warmup, &p.window, &p.owner}) {
    for (const OpRecord& op : *phase) requeries += op.requeries;
  }
  report->Add("client.requeries", static_cast<double>(requeries), "count",
              "count");
  report->Add("trace.self_sum_max_error_pct", a.max_sum_error * 100, "%",
              "wall");
}

// Tracing overhead: the traced stack's end-to-end figures against the
// untraced stack's, same seed, same process.
void AddOverhead(const Phases& untraced, const Phases& traced,
                 Report* report) {
  const double ops = OpsPerSecond(untraced);
  const double q50 =
      Percentile(Latencies(untraced.window, OpKind::kQuery, false), 0.5);
  const double traced_ops = OpsPerSecond(traced);
  const double traced_q50 =
      Percentile(Latencies(traced.window, OpKind::kQuery, false), 0.5);
  report->Add("trace.untraced_ops_per_s", ops, "1/s", "wall");
  report->Add("trace.traced_ops_per_s", traced_ops, "1/s", "wall");
  report->Add("trace.overhead_ops_per_s_pct",
              ops > 0 ? (ops - traced_ops) / ops * 100 : 0, "%", "wall");
  report->Add("trace.overhead_query_p50_pct",
              q50 > 0 ? (traced_q50 - q50) / q50 * 100 : 0, "%", "wall");
}

int Main(int argc, char** argv) {
  std::optional<Args> parsed = ParseArgs(argc, argv);
  if (!parsed.has_value()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--report <path>] [--spans <path>] "
                 "[--meta key=value]...\n");
    return 2;
  }
  const Args args = *parsed;
  std::optional<WorkloadDef> found = FindWorkload(args.workload, args.seed);
  if (!found.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'; known:", args.workload.c_str());
    for (const std::string& n : WorkloadNames()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  const WorkloadDef def = *found;

  // Before any thread starts: every thread inherits the restriction.
  const std::string cpus = PinToFirstCpus(kSessions);

  Report report;
  report.Meta("workload", def.name);
  report.Meta("seed", std::to_string(args.seed));
  report.Meta("trace", std::to_string(args.trace));
  report.Meta("seconds", JsonNumber(args.seconds));
  report.Meta("build_type", PERFBENCH_BUILD_TYPE);
  report.Meta("compiler", __VERSION__);
  report.Meta("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Meta("cpus", cpus);
  for (const std::string& kv : args.meta) {
    const size_t eq = kv.find('=');
    if (eq != std::string::npos) report.Meta(kv.substr(0, eq), kv.substr(eq + 1));
  }

  Verdict verdict;
  if (args.trace == 0) {
    Deployment deployment;
    std::vector<double> setups;
    const int64_t setup_start = NowNs();
    while (setups.size() < kMinSetups ||
           (setups.size() < kMaxSetups &&
            SecondsSince(setup_start) < kMinSetupSeconds)) {
      deployment.world.reset();  // one deployment alive at a time
      deployment = Deploy(def, args.seed, nullptr);
      setups.push_back(deployment.setup_seconds);
    }
    report.Meta("scenario_sha256", ScenarioHash(*deployment.gen));
    report.Note("setups " + std::to_string(setups.size()) + " min_s " +
                JsonNumber(*std::min_element(setups.begin(), setups.end())) +
                " max_s " +
                JsonNumber(*std::max_element(setups.begin(), setups.end())));
    const Measured m =
        MeasureAndCheck(def, &deployment, args.seed, args.seconds, &verdict);
    AddEndToEnd(m.phases, Median(setups), &report);
  } else {
    // The same operations on an untraced and a traced stack must deliver
    // the same views and move the same counters; each stack then runs the
    // timed phases for half of --seconds, and the difference is the
    // tracing overhead.
    const double half = args.seconds / 2;
    std::optional<ReplayOutcome> untraced_replay;
    std::optional<Measured> untraced;
    {
      Deployment plain = Deploy(def, args.seed, nullptr);
      report.Meta("scenario_sha256", ScenarioHash(*plain.gen));
      untraced_replay = Replay(def, &plain, args.seed, &verdict);
      untraced = MeasureAndCheck(def, &plain, args.seed, half, &verdict);
    }
    Tracer tracer;
    Deployment deployment = Deploy(def, args.seed, &tracer);
    const ReplayOutcome traced_replay =
        Replay(def, &deployment, args.seed, &verdict);
    const Measured traced =
        MeasureAndCheck(def, &deployment, args.seed, half, &verdict);

    const std::vector<Span> spans = tracer.Collect();
    std::set<uint64_t> measured;
    for (const auto* phase : {&traced.phases.window, &traced.phases.owner}) {
      for (const OpRecord& op : *phase) measured.insert(op.op_id);
    }
    const SpanAnalysis analysis = AnalyzeSpans(spans, measured);
    AddPerLayer(traced, analysis, traced_replay, *deployment.world, &report);
    AddOverhead(untraced->phases, traced.phases, &report);
    if (!args.spans_path.empty()) WriteSpans(args.spans_path, spans);
    for (const std::string& d : CompareReplays(*untraced_replay, traced_replay)) {
      verdict.checks_hold = false;
      verdict.problems.push_back("traced replay differs: " + d);
    }
    if (analysis.max_sum_error > kMaxSelfSumError) {
      verdict.checks_hold = false;
      verdict.problems.push_back("layer self times do not add up to the "
                                 "operation span");
    }
  }

  const double failed_ratio =
      verdict.attempted > 0 ? static_cast<double>(verdict.failed) /
                                  static_cast<double>(verdict.attempted)
                            : 1.0;
  report.Note("check attempted=" + std::to_string(verdict.attempted) +
              " failed=" + std::to_string(verdict.failed) +
              " view_mismatches=" + std::to_string(verdict.mismatched) +
              " requeries=" + std::to_string(verdict.requeries) +
              " failed_ops_ratio=" + JsonNumber(failed_ratio));
  for (const std::string& problem : verdict.problems) {
    report.Note("problem " + problem);
  }
  report.Print();

  const bool correct =
      verdict.failed == 0 && verdict.checks_hold && verdict.attempted > 0;
  if (!args.report_path.empty()) {
    std::ofstream out(args.report_path);
    out << "{\"meta\": " << report.MetaJson()
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << verdict.attempted
        << ", \"failed\": " << verdict.failed
        << ", \"failed_ops_ratio\": " << JsonNumber(failed_ratio)
        << ", \"metrics\": " << report.Json(true)
        << ", \"details\": " << report.DetailsJson() << "}\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(verdict.attempted),
              static_cast<unsigned long long>(verdict.failed),
              report.Json(false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
