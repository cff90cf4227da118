#include "workload/load.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "dissem/invalidation.h"
#include "dsp/async.h"
#include "dsp/blockfile.h"
#include "dsp/caching.h"
#include "dsp/durable.h"
#include "dsp/fault.h"
#include "dsp/replicated.h"
#include "dsp/retrying.h"
#include "dsp/sharded.h"
#include "dsp/store.h"
#include "pki/registry.h"
#include "proxy/publisher.h"
#include "proxy/terminal.h"
#include "scengen/publish.h"
#include "scengen/scenario.h"
#include "scengen/spec.h"
#include "xml/generator.h"

namespace csxa::workload {

namespace {

// One shared document's replay material: which query set applies to it
// and which subjects may open it. `scenario` indexes the run's query
// catalog — per canonical scenario on the classic path, a single shared
// entry on the spec path.
struct DocInfo {
  std::string doc_id;
  size_t scenario = 0;
  std::vector<std::string> subjects;
};

xml::DomDocument MakeDoc(const scengen::Scenario& scenario, size_t elements,
                         uint64_t seed) {
  // text_avg_len 32 is the harness's historical document shape; keep it so
  // classic runs stay byte-identical across releases.
  return scengen::MakeScenarioDocument(scenario, elements, seed, 32);
}

double Quantile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t index = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

// The scripted fault schedule, on the completed-operation clock: the
// session whose completion crosses a threshold applies that transition (a
// crash or partition starting or healing), exactly once, in threshold
// order. Healing pumps a heartbeat round so the recovered replica
// reintegrates promptly.
//
// A retry backoff stands for time passing, and in this harness time is
// other sessions' operations. So while a scripted fault is active, a
// session backing off parks until the schedule's next transition has been
// applied. If every live session is parked (or done), nothing could ever
// advance the op clock, so the last one to park applies the next
// transition itself: the clock jumps to the next event, as in a
// discrete-event simulation. Otherwise a write that cannot reach its
// quorum while two fault windows overlap would spend its whole retry
// budget at once and fail, unless some other session happened to finish
// an operation in between.
class FaultSchedule {
 public:
  FaultSchedule(const FaultPlan& plan, size_t replicas, size_t sessions,
                const std::vector<std::unique_ptr<dsp::FaultInjectingService>>&
                    injectors,
                dsp::ReplicatedService* replicated)
      : replicated_(replicated), live_(sessions) {
    if (!plan.enabled) return;
    if (plan.crash_replica < replicas) {
      dsp::FaultInjectingService* target = injectors[plan.crash_replica].get();
      transitions_.push_back({plan.crash_at_op, target, Kind::kCrash, true});
      transitions_.push_back(
          {plan.crash_heal_at_op, target, Kind::kCrash, false});
    }
    if (plan.partition_replica < replicas) {
      dsp::FaultInjectingService* target =
          injectors[plan.partition_replica].get();
      transitions_.push_back(
          {plan.partition_at_op, target, Kind::kPartition, true});
      transitions_.push_back(
          {plan.partition_heal_at_op, target, Kind::kPartition, false});
    }
    std::stable_sort(transitions_.begin(), transitions_.end(),
                     [](const Transition& a, const Transition& b) {
                       return a.at_op < b.at_op;
                     });
  }
  FaultSchedule(const FaultSchedule&) = delete;
  FaultSchedule& operator=(const FaultSchedule&) = delete;

  /// A session finished one operation.
  void OpCompleted() {
    std::lock_guard<std::mutex> lock(mu_);
    ++completed_;
    while (next_ < transitions_.size() &&
           transitions_[next_].at_op <= completed_) {
      ApplyNextLocked();
    }
  }

  /// A session finished its whole run.
  void SessionDone() {
    std::lock_guard<std::mutex> lock(mu_);
    --live_;
    changed_.notify_all();
  }

  /// The retry backoff: see the class comment.
  void AwaitTransition() {
    std::unique_lock<std::mutex> lock(mu_);
    if ((!crashed_ && !partitioned_) || next_ == transitions_.size()) return;
    const size_t awaited = next_;
    ++parked_;
    changed_.wait(lock, [&] { return next_ != awaited || parked_ == live_; });
    if (next_ == awaited) ApplyNextLocked();
    --parked_;
  }

 private:
  enum class Kind { kCrash, kPartition };
  struct Transition {
    uint64_t at_op;
    dsp::FaultInjectingService* target;
    Kind kind;
    bool starts;  // fault begins (true) or heals (false)
  };

  void ApplyNextLocked() {
    const Transition& t = transitions_[next_++];
    if (t.kind == Kind::kCrash) {
      crashed_ = t.starts;
      t.target->set_crashed(t.starts);
    } else {
      partitioned_ = t.starts;
      t.target->set_partitioned(t.starts);
    }
    if (!t.starts) replicated_->HeartbeatTick();
    changed_.notify_all();
  }

  std::vector<Transition> transitions_;  // immutable after construction
  dsp::ReplicatedService* replicated_;
  std::mutex mu_;  // guards everything below
  std::condition_variable changed_;
  size_t next_ = 0;  // first transition not yet applied
  uint64_t completed_ = 0;
  size_t live_;
  size_t parked_ = 0;
  bool crashed_ = false;
  bool partitioned_ = false;
};

}  // namespace

LoadReport RunLoad(const LoadOptions& options) {
  LoadOptions opt = options;
  if (opt.sessions == 0) opt.sessions = 1;
  if (opt.shards == 0) opt.shards = 1;
  if (opt.documents == 0) opt.documents = 1;
  if (opt.replicas == 0) opt.replicas = 1;

  // A generated scenario governs the workload shape: fleet size, document
  // shape and churn rates come from the spec, not the legacy knobs.
  const bool has_spec = opt.spec.has_value();
  scengen::GeneratedScenario gen;
  if (has_spec) {
    gen = scengen::BuildScenario(*opt.spec);
    opt.documents = gen.docs.size();
    opt.update_fraction = gen.spec.churn.update_fraction;
    opt.publish_fraction = gen.spec.churn.publish_fraction;
  }

  // --- The deployment under test -----------------------------------------
  // Per replica: a `shards`-wide DspServer fleet behind one router, wrapped
  // in a fault injector (idle unless the plan scripts otherwise). The
  // replica group runs above the routers; the dispatcher, cache and retry
  // edge stack above the group.
  std::vector<std::unique_ptr<dsp::Service>> stores;
  std::vector<std::unique_ptr<dsp::MemEnv>> envs;  // durable backend disks
  std::vector<std::unique_ptr<dsp::ShardedService>> routers;
  std::vector<std::unique_ptr<dsp::FaultInjectingService>> injectors;
  std::vector<dsp::Service*> replica_ptrs;
  for (size_t r = 0; r < opt.replicas; ++r) {
    std::vector<dsp::Service*> shard_ptrs;
    for (size_t i = 0; i < opt.shards; ++i) {
      if (opt.backend == StoreBackend::kDurable) {
        // Each shard of each replica is its own durable store on its own
        // hermetic in-RAM disk — the full sealed-block write path under
        // the full decorated stack.
        envs.push_back(std::make_unique<dsp::MemEnv>());
        dsp::DurableOptions dur;
        dur.directory = "store";
        dur.store_id =
            "load-r" + std::to_string(r) + "-s" + std::to_string(i);
        Rng key_rng(opt.seed * 63 + r * 17 + i);
        dur.key = crypto::SymmetricKey::Generate(&key_rng);
        dur.env = envs.back().get();
        stores.push_back(std::move(dsp::DurableServer::Open(dur)).value());
      } else {
        stores.push_back(std::make_unique<dsp::DspServer>());
      }
      shard_ptrs.push_back(stores.back().get());
    }
    routers.push_back(std::make_unique<dsp::ShardedService>(shard_ptrs));
    dsp::FaultOptions fopt;
    fopt.seed = opt.seed * 131 + r;
    if (opt.faults.enabled) {
      fopt.timeout_probability = opt.faults.timeout_probability;
    }
    injectors.push_back(std::make_unique<dsp::FaultInjectingService>(
        routers.back().get(), fopt));
    replica_ptrs.push_back(injectors.back().get());
  }
  dsp::ReplicatedService replicated(replica_ptrs);
  FaultSchedule schedule(opt.faults, opt.replicas, opt.sessions, injectors,
                         &replicated);

  // Policy-update push channel: committed writes fan out to the shared
  // cache (best-effort; the pull path self-heals what this drops).
  dissem::FanoutOptions fanopt;
  fanopt.drop_probability = opt.faults.notify_drop_probability;
  fanopt.seed = opt.seed * 977 + 5;
  dissem::InvalidationFanout fanout(fanopt);
  replicated.set_on_write_committed(
      [&fanout](const std::string& doc_id, uint64_t rules_version) {
        fanout.Publish(doc_id, rules_version);
      });

  dsp::AsyncDispatcher::Options dopt;
  dopt.workers = opt.workers;
  dsp::AsyncDispatcher dispatcher(&replicated, dopt);
  // ONE cache shared by every session: its locks are part of what the
  // harness stresses (and what cache hits make cheap).
  dsp::CachingClient cached(&dispatcher);
  fanout.Subscribe([&cached](const std::string& doc_id, uint64_t version) {
    cached.Invalidate(doc_id, version);
  });
  dsp::RetryOptions retopt;
  retopt.max_attempts = opt.retry_attempts;
  dsp::RetryingClient retrying(&cached, retopt);

  // The failure detector runs on its own modeled cadence: every completed
  // operation and every retry backoff advances this shared modeled clock
  // by its modeled latency, and whichever session crosses the next
  // heartbeat deadline fires exactly one round (the CAS coalesces
  // concurrent crossings — a single long operation advancing the clock by
  // many intervals still pays one tick, like a sleepy monitor catching
  // up). Heartbeats go straight to the replica group (not through the
  // dispatcher), so lane clocks measure serving work only.
  std::atomic<uint64_t> modeled_now_us{0};
  const uint64_t heartbeat_interval_us = static_cast<uint64_t>(
      std::max(opt.heartbeat_interval_sec, 1e-6) * 1e6);
  std::atomic<uint64_t> heartbeat_due_us{heartbeat_interval_us};
  auto advance_modeled_clock = [&](double seconds) {
    if (seconds <= 0) return;
    const uint64_t us = static_cast<uint64_t>(seconds * 1e6);
    const uint64_t now =
        modeled_now_us.fetch_add(us, std::memory_order_relaxed) + us;
    uint64_t due = heartbeat_due_us.load(std::memory_order_relaxed);
    if (now >= due && heartbeat_due_us.compare_exchange_strong(
                          due, now + heartbeat_interval_us,
                          std::memory_order_relaxed)) {
      replicated.HeartbeatTick();
    }
  };
  retrying.set_on_backoff(
      [&advance_modeled_clock, &schedule](int, double backoff_sec) {
        advance_modeled_clock(backoff_sec);
        schedule.AwaitTransition();
      });
  pki::KeyRegistry registry;

  const std::vector<scengen::Scenario> scenarios = scengen::AllScenarios();

  // Query catalog, indexed by DocInfo::scenario. Classic runs keep one
  // entry per canonical scenario; a generated scenario shares one query
  // mix fleet-wide.
  std::vector<std::vector<std::pair<std::string, std::string>>> query_sets;
  if (has_spec) {
    query_sets.push_back(gen.queries);
  } else {
    for (const scengen::Scenario& scn : scenarios) {
      query_sets.push_back(scn.queries);
    }
  }
  const proxy::PublishOptions publish_options{.chunk_size = opt.chunk_size};

  // --- Setup: publish the shared pool + one owned doc per session --------
  // Each session gets its own Publisher (publishers are single-threaded by
  // contract); all of them push through the shared serving stack.
  std::vector<std::unique_ptr<proxy::Publisher>> publishers;
  for (size_t k = 0; k < opt.sessions; ++k) {
    publishers.push_back(
        std::make_unique<proxy::Publisher>(&retrying, &registry, opt.seed + k));
  }
  proxy::Publisher setup_publisher(&retrying, &registry, opt.seed + 7777);

  std::vector<DocInfo> shared_docs;
  if (has_spec) {
    for (const scengen::ScenarioDoc& doc : gen.docs) {
      auto pub = scengen::PublishGeneratedDoc(&setup_publisher, gen, doc,
                                              publish_options);
      if (!pub.ok()) continue;  // counted nowhere: setup must succeed
      DocInfo info;
      info.doc_id = pub.value().doc_id;
      info.scenario = 0;  // the fleet-wide query mix
      info.subjects = std::move(pub.value().subjects);
      shared_docs.push_back(std::move(info));
    }
  } else {
    for (size_t d = 0; d < opt.documents; ++d) {
      DocInfo info;
      info.scenario = d % scenarios.size();
      const scengen::Scenario& scn = scenarios[info.scenario];
      info.doc_id = "shared-" + std::to_string(d);
      info.subjects =
          core::RuleSet::ParseText(scn.rules_text).value().Subjects();
      auto receipt = setup_publisher.Publish(
          info.doc_id, MakeDoc(scn, opt.elements_per_doc, opt.seed + 100 + d),
          scn.rules_text, publish_options);
      if (!receipt.ok()) continue;  // counted nowhere: setup must succeed
      shared_docs.push_back(std::move(info));
    }
  }

  struct OwnedDoc {
    DocInfo info;
    crypto::SymmetricKey key;
    /// Spec path: the document's index in the generated scenario and its
    /// current content/policy revision (republishes and updates advance it).
    size_t gen_index = 0;
    uint64_t revision = 0;
  };
  std::vector<OwnedDoc> owned(opt.sessions);
  for (size_t k = 0; k < opt.sessions; ++k) {
    OwnedDoc& own = owned[k];
    if (has_spec) {
      // Session-owned documents extend the fleet: indexes past the shared
      // pool, same spec-governed shape, same deterministic minting.
      own.gen_index = gen.spec.documents + k;
      scengen::ScenarioDoc doc = gen.MakeDoc(own.gen_index);
      own.info.doc_id = doc.doc_id;
      own.info.scenario = 0;
      own.info.subjects = doc.subjects;
      auto pub = scengen::PublishGeneratedDoc(publishers[k].get(), gen, doc,
                                              publish_options);
      if (pub.ok()) own.key = pub.value().key;
      continue;
    }
    own.info.scenario = k % scenarios.size();
    const scengen::Scenario& scn = scenarios[own.info.scenario];
    own.info.doc_id = "own-" + std::to_string(k);
    own.info.subjects =
        core::RuleSet::ParseText(scn.rules_text).value().Subjects();
    auto receipt = publishers[k]->Publish(
        own.info.doc_id, MakeDoc(scn, opt.elements_per_doc, opt.seed + 500 + k),
        scn.rules_text, publish_options);
    if (receipt.ok()) own.key = receipt.value().key;
  }

  // Measure the run, not the setup: snapshot every monotone counter.
  const std::vector<double> lanes_before = dispatcher.lane_busy_seconds();
  const std::vector<uint64_t> shards_before = routers[0]->shard_requests();

  // --- The run: N concurrent terminal sessions ---------------------------
  struct SessionOutcome {
    uint64_t queries = 0, updates = 0, publishes = 0, failures = 0;
    std::vector<double> latencies_sec;
  };
  std::vector<SessionOutcome> outcomes(opt.sessions);

  auto session_body = [&](size_t k) {
    SessionOutcome& out = outcomes[k];
    Rng rng(opt.seed * 9176 + k);
    OwnedDoc& own = owned[k];
    const double write_latency = opt.card.round_trip_latency_sec;

    // Terminals persist for the whole session, one per card holder the
    // session impersonates.
    std::map<std::string, proxy::Terminal> terminals;

    auto run_query = [&](const DocInfo& doc) {
      const auto& queries = query_sets[doc.scenario];
      const std::string& subject =
          doc.subjects[rng.Uniform(doc.subjects.size())];
      const auto& q = queries[rng.Uniform(queries.size())];
      proxy::Terminal& terminal =
          terminals
              .try_emplace(subject, subject, opt.card, &retrying, &registry)
              .first->second;
      if (!terminal.Provision(doc.doc_id).ok()) {
        ++out.failures;
        return;
      }
      proxy::QueryOptions qopt;
      qopt.query = q.second;
      auto result = terminal.Query(doc.doc_id, qopt);
      ++out.queries;
      if (!result.ok()) {
        ++out.failures;
        return;
      }
      out.latencies_sec.push_back(result.value().card.total_seconds);
      advance_modeled_clock(result.value().card.total_seconds);
    };

    for (size_t i = 0; i < opt.ops_per_session; ++i) {
      const double dice = rng.NextDouble();
      if (dice < opt.publish_fraction) {
        // Full republish of the session's own document: fresh key, fresh
        // container, version bumped past every cached copy. On the spec
        // path both the body and the policy advance one revision —
        // republishing is how a generated scenario's documents age.
        bool ok;
        if (has_spec) {
          ++own.revision;
          scengen::ScenarioDoc doc =
              gen.MakeDoc(own.gen_index, own.revision);
          doc.rules_text = gen.RulesRevision(own.gen_index, own.revision);
          auto pub = scengen::PublishGeneratedDoc(publishers[k].get(), gen,
                                                  doc, publish_options);
          ok = pub.ok();
          if (ok) own.key = pub.value().key;
        } else {
          const scengen::Scenario& scn = scenarios[own.info.scenario];
          auto receipt = publishers[k]->Publish(
              own.info.doc_id,
              MakeDoc(scn, opt.elements_per_doc, opt.seed + 900 + i * 31 + k),
              scn.rules_text, publish_options);
          ok = receipt.ok();
          if (ok) own.key = receipt.value().key;
        }
        ++out.publishes;
        if (ok) {
          out.latencies_sec.push_back(write_latency);
        } else {
          ++out.failures;
        }
        advance_modeled_clock(write_latency);
      } else if (dice < opt.publish_fraction + opt.update_fraction) {
        // The paper's cheap dynamic policy update: reseal rules, bump the
        // version — every cache holding this doc revalidates. On the spec
        // path each update is the next RulesRevision: stable subjects keep
        // access with fresh rule bodies while the mobile-subscriber window
        // slides (newly granted subjects receive the key; churned-out ones
        // keep a key the next republish rotates away).
        const std::string& rules_text =
            has_spec ? gen.RulesRevision(own.gen_index, ++own.revision)
                     : scenarios[own.info.scenario].rules_text;
        auto updated =
            publishers[k]->UpdateRules(own.info.doc_id, own.key, rules_text);
        ++out.updates;
        if (updated.ok()) {
          out.latencies_sec.push_back(write_latency);
        } else {
          ++out.failures;
        }
        advance_modeled_clock(write_latency);
      } else if (!shared_docs.empty() && rng.NextDouble() < 0.8) {
        run_query(shared_docs[rng.Uniform(shared_docs.size())]);
      } else {
        run_query(own.info);  // read-your-own-writes path
      }
      schedule.OpCompleted();
    }
    schedule.SessionDone();
  };

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(opt.sessions);
  for (size_t k = 0; k < opt.sessions; ++k) {
    threads.emplace_back(session_body, k);
  }
  for (std::thread& t : threads) t.join();

  // End healed: clear any fault the schedule never got around to lifting
  // and reintegrate, so the report shows the group's steady end state.
  if (opt.faults.enabled) {
    for (auto& injector : injectors) {
      injector->set_crashed(false);
      injector->set_partitioned(false);
    }
    replicated.HeartbeatTick();
  }
  const auto wall_end = std::chrono::steady_clock::now();

  // --- The report ---------------------------------------------------------
  LoadReport report;
  report.sessions = opt.sessions;
  report.workers = dispatcher.worker_count();
  report.shards = opt.shards;
  report.replicas = opt.replicas;
  report.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();

  std::vector<double> latencies;
  for (const SessionOutcome& out : outcomes) {
    report.queries += out.queries;
    report.updates += out.updates;
    report.publishes += out.publishes;
    report.failures += out.failures;
    latencies.insert(latencies.end(), out.latencies_sec.begin(),
                     out.latencies_sec.end());
  }
  std::sort(latencies.begin(), latencies.end());
  report.p50_latency_ms = Quantile(latencies, 0.50) * 1e3;
  report.p99_latency_ms = Quantile(latencies, 0.99) * 1e3;

  const std::vector<double> lanes_after = dispatcher.lane_busy_seconds();
  for (size_t i = 0; i < lanes_after.size(); ++i) {
    const double busy = lanes_after[i] - lanes_before[i];
    report.lane_busy_seconds.push_back(busy);
    report.modeled_busy_seconds += busy;
    report.modeled_makespan_seconds =
        std::max(report.modeled_makespan_seconds, busy);
  }
  const uint64_t total_ops =
      report.queries + report.updates + report.publishes;
  if (report.modeled_makespan_seconds > 0) {
    report.throughput_ops_per_sec =
        static_cast<double>(total_ops) / report.modeled_makespan_seconds;
  }

  const std::vector<uint64_t> shards_after = routers[0]->shard_requests();
  uint64_t shard_total = 0, shard_max = 0;
  for (size_t i = 0; i < shards_after.size(); ++i) {
    const uint64_t n = shards_after[i] - shards_before[i];
    report.shard_requests.push_back(n);
    shard_total += n;
    shard_max = std::max(shard_max, n);
  }
  if (shard_total > 0) {
    report.shard_imbalance =
        static_cast<double>(shard_max) * static_cast<double>(opt.shards) /
        static_cast<double>(shard_total);
  }
  report.cache_hits = cached.hits();
  report.cache_misses = cached.misses();
  report.cache_invalidations = cached.invalidations();
  report.backend = replicated.stats();

  report.retries = retrying.retries();
  report.retry_exhausted = retrying.exhausted();
  report.modeled_backoff_seconds = retrying.modeled_backoff_seconds();
  const dsp::ReplicationStats rstats = replicated.replication_stats();
  report.replica_read_reroutes = rstats.read_reroutes;
  report.primary_promotions = rstats.primary_promotions;
  report.stale_reads_detected = rstats.stale_reads_detected;
  report.stale_reads_served = rstats.stale_reads_served;
  report.quorum_failures = rstats.quorum_failures;
  report.reintegrations = rstats.reintegrations;
  report.heartbeats = rstats.heartbeats;
  report.heartbeat_failures = rstats.heartbeat_failures;
  for (const auto& injector : injectors) {
    report.faults_injected += injector->faults_injected();
  }
  report.notifications_delivered = fanout.delivered();
  report.notifications_dropped = fanout.dropped();
  report.fanout_invalidations = cached.fanout_invalidations();
  return report;
}

}  // namespace csxa::workload
