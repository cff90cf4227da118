#ifndef CSXA_WORKLOAD_LOAD_H_
#define CSXA_WORKLOAD_LOAD_H_

/// \file load.h
/// \brief Multi-tenant load harness: N concurrent terminal sessions
/// against a replicated, sharded, cached, asynchronously-dispatched DSP
/// deployment — optionally under a scripted fault schedule.
///
/// This is ROADMAP items 1 and 3 made measurable. The harness assembles
/// the full serving stack — RetryingClient over CachingClient over
/// AsyncDispatcher over ReplicatedService over `replicas` fault-injected
/// ShardedService fleets of DspServers, one shared pki::KeyRegistry —
/// publishes a pool of scenario documents, then lets `sessions` OS
/// threads replay mixed traffic (authorized queries over the scenario
/// rule sets, cheap policy updates, full republishes) concurrently. Every
/// layer below the terminals is shared mutable state; the harness is both
/// the throughput experiment and, under ThreadSanitizer, the race
/// detector for it.
///
/// With `faults.enabled`, replicas crash and partition mid-run on the
/// completed-operation clock and heal later; committed policy updates fan
/// out to the shared cache through the dissemination invalidation channel.
/// Heartbeats run on their own *modeled* cadence: every operation (and
/// every retry backoff) advances a shared modeled clock by its modeled
/// latency, and a heartbeat round fires each time the clock crosses the
/// configured interval — the failure detector ticks at a rate set by
/// simulated time, not by how often clients happen to be backing off. The
/// acceptance bar is in the counters: failures and stale_reads_served
/// stay zero while retries, reroutes, promotions and reintegrations
/// record the turbulence.
///
/// The shard fleet is either the in-memory DspServer (default) or the
/// durable encrypted block store (dsp/durable.h) on a hermetic in-RAM
/// filesystem — the same decorator stack, persisting every committed
/// write through the sealed block layer.
///
/// Reported throughput divides completed operations by the *modeled*
/// server makespan (the busiest dispatcher lane's accumulated modeled
/// service time) — the same modeled-clock methodology as the card cost
/// model, so the numbers scale with worker count rather than with the CI
/// machine's core count. Per-operation modeled latency (p50/p99) comes
/// from the card session cost model for queries and the round-trip model
/// for writes; per-shard load imbalance comes from the router's request
/// counters.

#include <cstdint>
#include <optional>
#include <vector>

#include "dsp/service.h"
#include "scengen/spec.h"
#include "soe/card_profile.h"

namespace csxa::workload {

/// Scripted mid-run fault schedule, on the completed-operation clock
/// (deterministic under any thread interleaving up to +-1 op). While a
/// scripted fault is active, a session's retry backoff waits for the next
/// transition; if every session is waiting, the schedule jumps to it.
struct FaultPlan {
  bool enabled = false;
  /// Replica crashed once this many client ops completed...
  size_t crash_replica = 1;
  uint64_t crash_at_op = 4;
  /// ...and healed (reintegrated via op-log catch-up) at this count.
  uint64_t crash_heal_at_op = 16;
  /// Replica partitioned away / healed, same clock. Skipped when the
  /// index is out of range (e.g. a 2-replica run).
  size_t partition_replica = 2;
  uint64_t partition_at_op = 10;
  uint64_t partition_heal_at_op = 22;
  /// Per-notification drop probability on the invalidation channel.
  double notify_drop_probability = 0;
  /// Per-request probability (each replica's injector) of an applied-but-
  /// lost-response timeout — the at-least-once hazard the retry edge and
  /// write quorum absorb.
  double timeout_probability = 0;
};

/// Which Service backend each shard runs.
enum class StoreBackend {
  kMemory,   ///< dsp::DspServer (volatile, the original harness)
  kDurable,  ///< dsp::DurableServer on a per-shard MemEnv
};

/// Knobs of one load run.
struct LoadOptions {
  /// Concurrent terminal sessions (client threads).
  size_t sessions = 16;
  /// Operations each session replays.
  size_t ops_per_session = 6;
  /// DspServer shards behind the router.
  size_t shards = 4;
  /// AsyncDispatcher worker lanes; 1 is the single-threaded baseline.
  size_t workers = 4;
  /// Shared scenario documents published at setup (round-robin over the
  /// agenda / hospital / news-feed scenarios).
  size_t documents = 6;
  /// Approximate element count of each generated document.
  size_t elements_per_doc = 200;
  /// Fraction of ops that are cheap policy updates (kUpdateRules).
  double update_fraction = 0.15;
  /// Fraction of ops that republish the session's own document.
  double publish_fraction = 0.10;
  uint64_t seed = 1;
  size_t chunk_size = 256;
  /// Card hardware model used by every terminal.
  soe::CardProfile card = soe::CardProfile::EGate();

  /// Replica groups in the fabric: each replica is its own `shards`-wide
  /// DspServer fleet behind a fault injector. 1 is an unreplicated (but
  /// still fully decorated) stack.
  size_t replicas = 1;
  /// Replicas that must apply a write before it is acked; 0 = majority.
  size_t write_quorum = 0;
  /// Consecutive missed heartbeats before a replica is declared down.
  int suspect_after = 2;
  /// Modeled seconds between heartbeat rounds (failure-detector cadence).
  double heartbeat_interval_sec = 0.01;
  /// Shard backend (see StoreBackend).
  StoreBackend backend = StoreBackend::kMemory;
  /// Terminal-edge retry budget (total attempts; 1 disables retries).
  int retry_attempts = 4;
  /// Scripted crash/partition schedule (needs replicas > 1 to be useful).
  FaultPlan faults;

  /// Generated scenario to replay instead of the canonical agenda /
  /// hospital / news-feed round-robin. When set, the spec governs the
  /// scenario shape — `documents`, `elements_per_doc`, `update_fraction`
  /// and `publish_fraction` above are ignored in favor of the spec's
  /// fleet size, document shape and churn rates; policy updates and
  /// republishes walk the spec's RulesRevision chain (churning mobile
  /// subscribers in and out) instead of resealing a fixed rule text.
  /// Everything else (stack topology, card model, faults, seed for the
  /// op mix) still comes from the fields above.
  std::optional<scengen::ScenarioSpec> spec;
};

/// What one load run measured.
struct LoadReport {
  size_t sessions = 0;
  size_t workers = 0;
  size_t shards = 0;
  uint64_t queries = 0;
  uint64_t updates = 0;
  uint64_t publishes = 0;
  uint64_t failures = 0;  ///< non-OK operations (0 on a correct stack)

  double wall_seconds = 0;  ///< host time (informational; core-count bound)
  /// Modeled server work: sum / busiest-lane of dispatcher lane clocks,
  /// measured over the run (setup excluded).
  double modeled_busy_seconds = 0;
  double modeled_makespan_seconds = 0;
  /// ops / modeled_makespan_seconds — the headline number.
  double throughput_ops_per_sec = 0;
  /// Modeled per-operation latency quantiles, milliseconds.
  double p50_latency_ms = 0;
  double p99_latency_ms = 0;

  std::vector<uint64_t> shard_requests;  ///< per shard (replica 0), this run
  /// max/mean of shard_requests. Every op but a heartbeat goes to its
  /// document's home shard only, so this is the placement skew of the
  /// traffic.
  double shard_imbalance = 0;
  std::vector<double> lane_busy_seconds; ///< per dispatcher lane, this run
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_invalidations = 0;
  dsp::ServiceStats backend;  ///< primary replica's fleet stats, end of run

  // --- Replication / fault-tolerance counters (zero when quiet) ---
  size_t replicas = 0;
  uint64_t retries = 0;          ///< terminal-edge attempts beyond the first
  uint64_t retry_exhausted = 0;  ///< ops that ran out of retry budget
  double modeled_backoff_seconds = 0;  ///< total modeled retry backoff
  uint64_t replica_read_reroutes = 0;  ///< reads served by a non-first replica
  uint64_t primary_promotions = 0;
  uint64_t stale_reads_detected = 0;  ///< stale replies caught and bypassed
  uint64_t stale_reads_served = 0;    ///< MUST stay 0 — the invariant
  uint64_t quorum_failures = 0;
  uint64_t reintegrations = 0;
  uint64_t heartbeats = 0;
  uint64_t heartbeat_failures = 0;
  uint64_t faults_injected = 0;  ///< total over all replica injectors
  uint64_t notifications_delivered = 0;  ///< invalidation fan-out
  uint64_t notifications_dropped = 0;
  uint64_t fanout_invalidations = 0;  ///< cache entries dropped by push
};

/// Runs one load experiment; deterministic given options.seed except for
/// wall_seconds and thread interleaving (which the modeled clocks hide).
LoadReport RunLoad(const LoadOptions& options);

}  // namespace csxa::workload

#endif  // CSXA_WORKLOAD_LOAD_H_
