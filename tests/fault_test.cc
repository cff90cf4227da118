// Fault-tolerance suite for the replicated DSP fabric (`ctest -L fault`;
// scripts/ci.sh also runs it under ThreadSanitizer).
//
// What is pinned here:
//  - FaultInjectingService breaks its backend exactly as scripted: crash
//    and partition windows reject without applying, timeouts apply then
//    lose the response, blackholes ack without applying, duplicates apply
//    twice;
//  - ReplicatedService never acks a write below quorum, never serves a
//    read below the version acked to its writer (its stale_reads_served
//    counter is never incremented, so the checks on it hold by
//    construction; the client-side history check is ROADMAP item 3),
//    promotes a new primary when the old one dies, and reintegrates
//    recovered replicas by op-log replay — including the full-log rebuild
//    of a replica that lied (blackholed acks);
//  - RetryingClient turns transient IoErrors into latency, leaves
//    authoritative rejections alone, and absorbs the kRemove-retry
//    NotFound race;
//  - the invalidation fan-out pushes committed policy updates into the
//    terminal cache, and losing those notifications costs freshness
//    round-trips, never correctness;
//  - AsyncDispatcher keeps its per-document FIFO running across backend
//    errors and still resolves every future;
//  - the full load harness rides out a scripted crash + partition with
//    zero failed operations and zero stale reads.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "crypto/container.h"
#include "dissem/invalidation.h"
#include "dsp/async.h"
#include "dsp/caching.h"
#include "dsp/fault.h"
#include "dsp/replicated.h"
#include "dsp/retrying.h"
#include "dsp/service.h"
#include "dsp/sharded.h"
#include "dsp/store.h"
#include "workload/load.h"

namespace csxa {
namespace {

Bytes RulesBlobFor(uint64_t version) {
  return Bytes(16, static_cast<uint8_t>(version & 0xFF));
}

Bytes MakeContainer(uint64_t seed, size_t payload_bytes = 600) {
  Rng rng(seed);
  auto key = crypto::SymmetricKey::Generate(&rng);
  return crypto::SecureContainer::Seal(
      key, Bytes(payload_bytes, static_cast<uint8_t>(seed)), 256, &rng);
}

// A 3-replica group over single DspServers, each behind an injector.
struct Fabric {
  static constexpr size_t kReplicas = 3;
  dsp::DspServer stores[kReplicas];
  std::vector<std::unique_ptr<dsp::FaultInjectingService>> injectors;
  std::unique_ptr<dsp::ReplicatedService> group;

  explicit Fabric(dsp::ReplicationOptions ropt = {}) {
    std::vector<dsp::Service*> ptrs;
    for (size_t i = 0; i < kReplicas; ++i) {
      injectors.push_back(
          std::make_unique<dsp::FaultInjectingService>(&stores[i]));
      ptrs.push_back(injectors.back().get());
    }
    group = std::make_unique<dsp::ReplicatedService>(ptrs, ropt);
  }
};

// --- Fault injector semantics ------------------------------------------------

TEST(FaultInjectorTest, CrashWindowRejectsWithoutApplying) {
  dsp::DspServer store;
  dsp::FaultOptions fopt;
  fopt.schedule.push_back({0, 2, dsp::FaultKind::kCrash});
  dsp::FaultInjectingService faulty(&store, fopt);

  // Requests 0 and 1 hit the crash window; request 2 is healthy.
  auto r0 = faulty.Publish("doc", MakeContainer(1), RulesBlobFor(1));
  EXPECT_EQ(r0.code(), StatusCode::kIoError);
  EXPECT_EQ(store.stats().documents, 0u);  // nothing applied
  EXPECT_EQ(faulty.OpenDocument("doc").status().code(), StatusCode::kIoError);
  ASSERT_TRUE(faulty.Publish("doc", MakeContainer(1), RulesBlobFor(1)).ok());
  EXPECT_EQ(store.stats().documents, 1u);
  EXPECT_EQ(faulty.crashes(), 2u);
  EXPECT_EQ(faulty.faults_injected(), 2u);
}

TEST(FaultInjectorTest, TimeoutAppliesButLosesTheResponse) {
  dsp::DspServer store;
  dsp::FaultOptions fopt;
  fopt.schedule.push_back({0, 1, dsp::FaultKind::kTimeout});
  dsp::FaultInjectingService faulty(&store, fopt);

  // The at-least-once hazard: the "failed" publish actually happened.
  EXPECT_EQ(faulty.Publish("doc", MakeContainer(1), RulesBlobFor(1)).code(),
            StatusCode::kIoError);
  EXPECT_EQ(store.stats().documents, 1u);
  EXPECT_TRUE(faulty.OpenDocument("doc").ok());
  EXPECT_EQ(faulty.timeouts(), 1u);
}

TEST(FaultInjectorTest, BlackholeAcksWithoutApplying) {
  dsp::DspServer store;
  dsp::FaultOptions fopt;
  fopt.schedule.push_back({0, 1, dsp::FaultKind::kBlackhole});
  dsp::FaultInjectingService faulty(&store, fopt);

  // The lying replica: success reported, nothing stored.
  EXPECT_TRUE(faulty.Publish("doc", MakeContainer(1), RulesBlobFor(1)).ok());
  EXPECT_EQ(store.stats().documents, 0u);
  EXPECT_EQ(faulty.blackholes(), 1u);
}

TEST(FaultInjectorTest, DuplicateAppliesTwice) {
  dsp::DspServer store;
  ASSERT_TRUE(store.Publish("doc", MakeContainer(1), RulesBlobFor(1)).ok());
  dsp::FaultOptions fopt;
  fopt.schedule.push_back({0, 1, dsp::FaultKind::kDuplicate});
  dsp::FaultInjectingService faulty(&store, fopt);

  // A replayed kUpdateRules delivery bumps the version twice.
  dsp::Request req;
  req.op = dsp::Op::kUpdateRules;
  req.doc_id = "doc";
  req.sealed_rules = RulesBlobFor(3);
  auto resp = faulty.Execute(std::move(req));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().rules_version, 3u);
  EXPECT_EQ(faulty.duplicates(), 1u);
}

TEST(FaultInjectorTest, ManualTogglesDominateAndHeal) {
  dsp::DspServer store;
  dsp::FaultInjectingService faulty(&store);
  ASSERT_TRUE(faulty.Publish("doc", MakeContainer(1), RulesBlobFor(1)).ok());
  faulty.set_partitioned(true);
  EXPECT_EQ(faulty.OpenDocument("doc").status().code(), StatusCode::kIoError);
  faulty.set_partitioned(false);
  // State was retained across the partition.
  EXPECT_TRUE(faulty.OpenDocument("doc").ok());
  EXPECT_EQ(faulty.partitions(), 1u);
}

// --- Replicated writes and reads ---------------------------------------------

TEST(ReplicatedServiceTest, WritesReachEveryReplicaWithOneVersionHistory) {
  Fabric fab;
  ASSERT_TRUE(fab.group->Publish("doc", MakeContainer(1), RulesBlobFor(1)).ok());
  for (uint64_t v = 2; v <= 5; ++v) {
    ASSERT_TRUE(fab.group->UpdateRules("doc", RulesBlobFor(v)).ok());
  }
  EXPECT_EQ(fab.group->committed_version("doc"), 5u);
  EXPECT_EQ(fab.group->log_size(), 5u);
  // Every replica holds the same canonical version (not a private counter).
  for (auto& store : fab.stores) {
    auto open = store.OpenDocument("doc");
    ASSERT_TRUE(open.ok());
    EXPECT_EQ(open.value().rules_version, 5u);
  }
  const auto rstats = fab.group->replication_stats();
  EXPECT_EQ(rstats.writes, 5u);
  EXPECT_EQ(rstats.stale_reads_served, 0u);
}

TEST(ReplicatedServiceTest, SubQuorumWriteFailsButRetryHeals) {
  Fabric fab;
  ASSERT_TRUE(fab.group->Publish("doc", MakeContainer(1), RulesBlobFor(1)).ok());
  // Both backups gone: the primary alone is below the 2/3 majority.
  fab.injectors[1]->set_crashed(true);
  fab.injectors[2]->set_crashed(true);
  EXPECT_EQ(fab.group->UpdateRules("doc", RulesBlobFor(2)).code(),
            StatusCode::kIoError);
  EXPECT_EQ(fab.group->replication_stats().quorum_failures, 1u);
  // The stale guard already covers v2 (the primary applied it): a retry
  // after one backup heals must land on v3, not re-serve v1.
  fab.injectors[1]->set_crashed(false);
  fab.group->HeartbeatTick();  // reintegrates replica 1 via catch-up
  ASSERT_TRUE(fab.group->UpdateRules("doc", RulesBlobFor(3)).ok());
  EXPECT_EQ(fab.group->committed_version("doc"), 3u);
  auto open = fab.group->OpenDocument("doc");
  ASSERT_TRUE(open.ok());
  EXPECT_GE(open.value().rules_version, 3u);
}

TEST(ReplicatedServiceTest, PrimaryCrashPromotesABackupMidWrite) {
  Fabric fab;
  ASSERT_TRUE(fab.group->Publish("doc", MakeContainer(1), RulesBlobFor(1)).ok());
  EXPECT_EQ(fab.group->primary(), 0u);
  fab.injectors[0]->set_crashed(true);
  // The write itself demotes the dead primary and succeeds on a backup
  // (passive detection: no heartbeat needed).
  ASSERT_TRUE(fab.group->UpdateRules("doc", RulesBlobFor(2)).ok());
  EXPECT_NE(fab.group->primary(), 0u);
  const auto rstats = fab.group->replication_stats();
  EXPECT_GE(rstats.primary_promotions, 1u);
  EXPECT_EQ(fab.group->committed_version("doc"), 2u);
}

TEST(ReplicatedServiceTest, ReadsRerouteAroundAPartitionedReplica) {
  Fabric fab;
  ASSERT_TRUE(fab.group->Publish("doc", MakeContainer(1), RulesBlobFor(1)).ok());
  fab.injectors[1]->set_partitioned(true);
  // Round-robin guarantees some reads pick replica 1 first; all must
  // still succeed by moving on.
  for (int i = 0; i < 9; ++i) {
    EXPECT_TRUE(fab.group->OpenDocument("doc").ok());
  }
  const auto rstats = fab.group->replication_stats();
  EXPECT_GE(rstats.read_reroutes, 1u);
  EXPECT_EQ(rstats.stale_reads_served, 0u);
}

TEST(ReplicatedServiceTest, CrashedReplicaCatchesUpFromTheOpLog) {
  Fabric fab;
  ASSERT_TRUE(fab.group->Publish("doc", MakeContainer(1), RulesBlobFor(1)).ok());
  fab.injectors[2]->set_crashed(true);
  for (uint64_t v = 2; v <= 6; ++v) {
    ASSERT_TRUE(fab.group->UpdateRules("doc", RulesBlobFor(v)).ok());
  }
  // Replica 2 missed five updates. Heal it; the next heartbeat replays
  // the suffix and rejoins it.
  fab.injectors[2]->set_crashed(false);
  fab.group->HeartbeatTick();
  const auto states = fab.group->replica_states();
  EXPECT_EQ(states[2], dsp::ReplicaState::kInSync);
  auto open = fab.stores[2].OpenDocument("doc");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open.value().rules_version, 6u);
  const auto rstats = fab.group->replication_stats();
  EXPECT_GE(rstats.reintegrations, 1u);
  EXPECT_GE(rstats.catchup_ops_replayed, 5u);
}

TEST(ReplicatedServiceTest, LaggingReplicaIsCaughtAndNeverServesStale) {
  // Replica 1 blackholes one window of writes: it acks them without
  // applying, so the group believes it is in sync while it serves v1.
  Fabric fab;
  ASSERT_TRUE(fab.group->Publish("doc", MakeContainer(1), RulesBlobFor(1)).ok());
  dsp::FaultOptions lying;
  // Window over replica 1's own request counter: it has seen 1 request
  // (the publish), so the next few writes fall in [1, 4).
  lying.schedule.push_back({1, 4, dsp::FaultKind::kBlackhole});
  // Rebuild replica 1's injector with the lying schedule.
  fab.injectors[1] = std::make_unique<dsp::FaultInjectingService>(
      &fab.stores[1], lying);
  // NOTE: group still points at the old injector — rebuild the group too.
  std::vector<dsp::Service*> ptrs = {fab.injectors[0].get(),
                                     fab.injectors[1].get(),
                                     fab.injectors[2].get()};
  dsp::ReplicatedService group(ptrs, dsp::ReplicationOptions{});
  // Re-seed the new group's log/committed state through its own write
  // path (replica stores already hold v1; republish overwrites).
  ASSERT_TRUE(group.Publish("doc", MakeContainer(1), RulesBlobFor(1)).ok());
  ASSERT_TRUE(group.UpdateRules("doc", RulesBlobFor(2)).ok());
  ASSERT_TRUE(group.UpdateRules("doc", RulesBlobFor(3)).ok());
  // Replica 1 acked v2/v3 but still holds v1 — a stale read waiting to
  // happen. Every open must still return the committed version.
  for (int i = 0; i < 9; ++i) {
    auto open = group.OpenDocument("doc");
    ASSERT_TRUE(open.ok());
    EXPECT_GE(open.value().rules_version, group.committed_version("doc"));
  }
  const auto rstats = group.replication_stats();
  EXPECT_GE(rstats.stale_reads_detected, 1u);
  EXPECT_EQ(rstats.stale_reads_served, 0u);
  // The liar was demoted; a heartbeat rebuilds it from the full log.
  group.HeartbeatTick();
  EXPECT_EQ(group.replica_states()[1], dsp::ReplicaState::kInSync);
  auto open = fab.stores[1].OpenDocument("doc");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open.value().rules_version, group.committed_version("doc"));
}

// --- Retrying client ---------------------------------------------------------

TEST(RetryingClientTest, TransientErrorsBecomeLatencyNotFailures) {
  dsp::DspServer store;
  ASSERT_TRUE(store.Publish("doc", MakeContainer(1), RulesBlobFor(1)).ok());
  dsp::FaultOptions fopt;
  fopt.schedule.push_back({1, 3, dsp::FaultKind::kPartition});
  dsp::FaultInjectingService faulty(&store, fopt);
  dsp::RetryingClient client(&faulty);

  EXPECT_TRUE(client.OpenDocument("doc").ok());  // request 0: healthy
  // Requests 1 and 2 are partitioned; attempts 3+ succeed.
  EXPECT_TRUE(client.OpenDocument("doc").ok());
  EXPECT_EQ(client.retries(), 2u);
  EXPECT_EQ(client.exhausted(), 0u);
  EXPECT_GT(client.modeled_backoff_seconds(), 0.0);
}

TEST(RetryingClientTest, AuthoritativeRejectionsAreNotRetried) {
  dsp::DspServer store;
  dsp::RetryingClient client(&store);
  EXPECT_EQ(client.OpenDocument("missing").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client.retries(), 0u);
}

TEST(RetryingClientTest, ExhaustsBoundedBudgetAgainstADeadBackend) {
  dsp::DspServer store;
  dsp::FaultInjectingService faulty(&store);
  faulty.set_crashed(true);
  dsp::RetryOptions ropt;
  ropt.max_attempts = 3;
  dsp::RetryingClient client(&faulty, ropt);
  int backoffs = 0;
  client.set_on_backoff([&backoffs](int, double) { ++backoffs; });
  EXPECT_EQ(client.OpenDocument("doc").status().code(), StatusCode::kIoError);
  EXPECT_EQ(client.retries(), 2u);  // attempts 2 and 3
  EXPECT_EQ(backoffs, 2);
  EXPECT_EQ(client.exhausted(), 1u);
}

TEST(RetryingClientTest, BackoffStartsAt5msDoublesAndCapsAt250ms) {
  dsp::DspServer store;
  dsp::FaultInjectingService faulty(&store);
  faulty.set_crashed(true);
  dsp::RetryOptions ropt;
  ropt.max_attempts = 9;
  dsp::RetryingClient client(&faulty, ropt);
  std::vector<int> attempts;
  std::vector<double> backoffs;
  client.set_on_backoff([&](int attempt, double seconds) {
    attempts.push_back(attempt);
    backoffs.push_back(seconds);
  });
  // A write retries like a read.
  EXPECT_EQ(client.UpdateRules("doc", RulesBlobFor(1)).code(),
            StatusCode::kIoError);
  const std::vector<double> expected = {0.005, 0.01, 0.02, 0.04,
                                        0.08,  0.16, 0.25, 0.25};
  ASSERT_EQ(backoffs.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(attempts[i], static_cast<int>(i) + 1);
    EXPECT_DOUBLE_EQ(backoffs[i], expected[i]) << i;
  }
  EXPECT_DOUBLE_EQ(client.modeled_backoff_seconds(), 0.815);
  EXPECT_EQ(client.retries(), 8u);
}

TEST(RetryingClientTest, RemoveRetryAbsorbsTheNotFoundRace) {
  dsp::DspServer store;
  ASSERT_TRUE(store.Publish("doc", MakeContainer(1), RulesBlobFor(1)).ok());
  dsp::FaultOptions fopt;
  fopt.schedule.push_back({0, 1, dsp::FaultKind::kTimeout});
  dsp::FaultInjectingService faulty(&store, fopt);
  dsp::RetryingClient client(&faulty);

  // The first attempt applies the remove but loses the response; the
  // retry's NotFound is our own success echoing back.
  EXPECT_TRUE(client.Remove("doc").ok());
  EXPECT_EQ(client.remove_races_absorbed(), 1u);
  EXPECT_EQ(store.stats().documents, 0u);
}

// --- Invalidation fan-out ----------------------------------------------------

TEST(InvalidationFanoutTest, CommittedUpdatesPushIntoTheCache) {
  Fabric fab;
  dsp::CachingClient cached(fab.group.get());
  dissem::InvalidationFanout fanout;
  fanout.Subscribe([&cached](const std::string& doc_id, uint64_t version) {
    cached.Invalidate(doc_id, version);
  });
  fab.group->set_on_write_committed(
      [&fanout](const std::string& doc_id, uint64_t version) {
        fanout.Publish(doc_id, version);
      });

  ASSERT_TRUE(cached.Publish("doc", MakeContainer(1), RulesBlobFor(1)).ok());
  ASSERT_TRUE(cached.OpenDocument("doc").ok());  // fill
  ASSERT_EQ(cached.cache_size(), 1u);
  // A policy update published by ANOTHER path (directly to the group)
  // still evicts this cache through the push channel.
  ASSERT_TRUE(fab.group->UpdateRules("doc", RulesBlobFor(2)).ok());
  EXPECT_EQ(cached.cache_size(), 0u);
  EXPECT_EQ(cached.fanout_invalidations(), 1u);
  EXPECT_EQ(fanout.delivered(), 2u);  // the publish and the update
  auto open = cached.OpenDocument("doc");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open.value().rules_version, 2u);
}

TEST(InvalidationFanoutTest, LostNotificationsCostFreshnessNotCorrectness) {
  Fabric fab;
  dsp::CachingClient cached(fab.group.get());
  dissem::InvalidationFanout fanout;
  const size_t sub = fanout.Subscribe(
      [&cached](const std::string& doc_id, uint64_t version) {
        cached.Invalidate(doc_id, version);
      });
  fab.group->set_on_write_committed(
      [&fanout](const std::string& doc_id, uint64_t version) {
        fanout.Publish(doc_id, version);
      });

  ASSERT_TRUE(cached.Publish("doc", MakeContainer(1), RulesBlobFor(1)).ok());
  ASSERT_TRUE(cached.OpenDocument("doc").ok());
  // Partition the subscriber: the next update's notification is lost.
  fanout.set_partitioned(sub, true);
  ASSERT_TRUE(fab.group->UpdateRules("doc", RulesBlobFor(2)).ok());
  EXPECT_EQ(cached.cache_size(), 1u);  // push missed it...
  // ...but the pull path revalidates: the very next open serves v2.
  auto open = cached.OpenDocument("doc");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open.value().rules_version, 2u);
  EXPECT_GE(cached.invalidations(), 1u);
  EXPECT_EQ(fanout.partitioned(), 1u);
}

// --- Dispatcher under backend errors ----------------------------------------

TEST(AsyncDispatcherTest, BackendErrorsDoNotStallTheLane) {
  dsp::DspServer store;
  ASSERT_TRUE(store.Publish("doc", MakeContainer(1), RulesBlobFor(1)).ok());
  dsp::FaultOptions fopt;
  // Every third request from index 1 fails — interleaved with successes
  // on the same document, i.e. the same FIFO lane.
  fopt.schedule.push_back({1, 2, dsp::FaultKind::kCrash});
  fopt.schedule.push_back({4, 5, dsp::FaultKind::kCrash});
  dsp::FaultInjectingService faulty(&store, fopt);
  dsp::AsyncDispatcher::Options dopt;
  dopt.workers = 2;
  dsp::AsyncDispatcher dispatcher(&faulty, dopt);

  std::vector<std::future<Result<dsp::Response>>> futures;
  for (int i = 0; i < 8; ++i) {
    dsp::Request req;
    req.op = dsp::Op::kOpenDocument;
    req.doc_id = "doc";
    futures.push_back(dispatcher.Submit(std::move(req)));
  }
  size_t ok = 0, io = 0;
  for (auto& f : futures) {
    auto res = f.get();  // every future resolves
    if (res.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(res.status().code(), StatusCode::kIoError);
      ++io;
    }
  }
  EXPECT_EQ(ok, 6u);
  EXPECT_EQ(io, 2u);
  EXPECT_EQ(dispatcher.executed(), 8u);
  // Errors are still served work: the lane clock charged them.
  EXPECT_GT(dispatcher.modeled_busy_seconds(), 0.0);
}

TEST(AsyncDispatcherTest, DrainOnDestroyResolvesFuturesAgainstADeadBackend) {
  dsp::DspServer store;
  dsp::FaultInjectingService faulty(&store);
  faulty.set_crashed(true);
  std::vector<std::future<Result<dsp::Response>>> futures;
  {
    dsp::AsyncDispatcher dispatcher(&faulty);
    for (int i = 0; i < 6; ++i) {
      dsp::Request req;
      req.op = dsp::Op::kOpenDocument;
      req.doc_id = "doc-" + std::to_string(i);
      futures.push_back(dispatcher.Submit(std::move(req)));
    }
  }  // destructor drains: queued requests execute, none abandoned
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status().code(), StatusCode::kIoError);
  }
}

// --- Full stack under a scripted fault schedule ------------------------------

TEST(FaultLoadTest, ScriptedCrashAndPartitionCompleteWithZeroFailures) {
  workload::LoadOptions opt;
  opt.sessions = 6;
  opt.ops_per_session = 6;
  opt.shards = 2;
  opt.workers = 2;
  opt.spec.documents = 3;
  opt.spec.doc.elements = 60;
  opt.seed = 42;
  opt.replicas = 3;
  opt.faults.enabled = true;
  // Crash and partition windows deliberately do NOT overlap: with a 2/3
  // quorum, losing both backups at once would (correctly) fail writes.
  opt.faults.crash_replica = 1;
  opt.faults.crash_at_op = 4;
  opt.faults.crash_heal_at_op = 12;
  opt.faults.partition_replica = 2;
  opt.faults.partition_at_op = 15;
  opt.faults.partition_heal_at_op = 26;
  // Sprinkled lost responses exercise the client retry loop end to end
  // (the all-suspect moment is what pumps heartbeats from backoff). While
  // the crash window leaves a single live backup, ONE timed-out ack fails
  // the quorum — a deep retry budget keeps that latency, not failure.
  opt.faults.timeout_probability = 0.08;
  opt.retry_attempts = 8;

  workload::LoadReport report = workload::RunLoad(opt);
  // The acceptance bar: turbulence below, calm above.
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.stale_reads_served, 0u);
  EXPECT_EQ(report.retry_exhausted, 0u);
  EXPECT_GT(report.queries, 0u);
  EXPECT_GT(report.faults_injected, 0u);
  EXPECT_GT(report.retries, 0u);
  EXPECT_GE(report.reintegrations, 1u);  // both faults healed mid-run
  EXPECT_GT(report.heartbeats, 0u);
  EXPECT_GT(report.throughput_ops_per_sec, 0.0);
  EXPECT_EQ(report.replicas, 3u);
}

TEST(FaultLoadTest, DroppedNotificationsSelfHeal) {
  workload::LoadOptions opt;
  opt.sessions = 4;
  opt.ops_per_session = 4;
  opt.shards = 2;
  opt.workers = 2;
  opt.spec.documents = 2;
  opt.spec.doc.elements = 60;
  opt.seed = 7;
  opt.replicas = 2;
  opt.spec.churn.update_fraction = 0.4;  // plenty of fan-out traffic
  opt.faults.enabled = true;
  opt.faults.crash_replica = opt.replicas;  // out of range: no crash
  opt.faults.partition_replica = opt.replicas;
  opt.faults.notify_drop_probability = 0.5;

  workload::LoadReport report = workload::RunLoad(opt);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.stale_reads_served, 0u);
  EXPECT_GT(report.updates + report.publishes, 0u);
  EXPECT_GT(report.notifications_dropped, 0u);  // p=0.5 over many commits
}

TEST(FaultLoadTest, FailedSetupPublishesCountAsFailures) {
  // Every response is lost and nothing retries, so no setup publish (the
  // shared fleet plus one owned document per session) can succeed. A run
  // whose setup broke must not report a clean bill.
  workload::LoadOptions opt;
  opt.sessions = 2;
  opt.ops_per_session = 0;
  opt.replicas = 1;
  opt.retry_attempts = 1;
  opt.faults.enabled = true;
  opt.faults.timeout_probability = 1.0;
  opt.faults.crash_replica = opt.replicas;  // out of range: no crash
  opt.faults.partition_replica = opt.replicas;

  workload::LoadReport report = workload::RunLoad(opt);
  EXPECT_EQ(report.failures, opt.spec.documents + opt.sessions);
}

}  // namespace
}  // namespace csxa
