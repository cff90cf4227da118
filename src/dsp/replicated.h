#ifndef CSXA_DSP_REPLICATED_H_
#define CSXA_DSP_REPLICATED_H_

/// \file replicated.h
/// \brief Primary/backup replication with quorum writes, heartbeat
/// failure detection and op-log catch-up.
///
/// ShardedService scales the namespace *out* by hash routing alone (each
/// document on one home shard, no failover); ReplicatedService keeps it
/// *up*, and is the only layer that routes around failures. It runs N
/// interchangeable backend Services (typically each a sharded fleet
/// wrapped in a FaultInjectingService under test) as one replica group:
///
///  - **Writes** (kPublish / kUpdateRules / kRemove) are applied on the
///    primary first — the primary's DspServer assigns the canonical rules
///    version — then fanned out to every in-sync backup with the
///    canonical version stamped into Request::force_rules_version, so all
///    replicas converge on one version history. The write is acked to the
///    caller once `write_quorum` replicas (counting the primary) applied
///    it; fewer acks return IoError and the caller retries (at-least-once
///    is safe: versions are monotone and version-keyed caches
///    revalidate). Every accepted write is appended to the op log.
///  - **Reads** are served by any in-sync replica (round-robin), guarded
///    by the committed rules version: a reply whose rules_version is
///    below the version last acked to a writer — or a NotFound for a
///    document known to be committed — marks the replica as lagging and
///    the read moves on. A stale reply never leaves this layer. The
///    stale_reads_served counter is never incremented: nothing here can
///    notice a stale reply it let through, so its zero holds by
///    construction and checks nothing. The real check is a client-side
///    history checker (ROADMAP.md, open item 3).
///  - **Failure detection** is heartbeat-based on a modeled clock: each
///    HeartbeatTick() pings every replica (Op::kPing) once. An in-sync
///    replica that misses a beat, or fails a request (passive detection),
///    becomes kSuspect: out of rotation until a beat answers again.
///    If the primary leaves the in-sync set, the next write (or tick)
///    promotes the first in-sync replica.
///  - **Reintegration**: a replica whose heartbeat returns catches up by
///    replaying the op-log suffix it missed (with canonical versions
///    forced), then rejoins the in-sync set. A replica caught serving
///    stale state (it acked a write it never applied) is rebuilt by
///    replaying the full log — replays are idempotent because versions
///    are forced and republishes overwrite.
///
/// Threading: safe for concurrent Execute()/HeartbeatTick() from any
/// number of threads. Writers and catch-up serialize on one write mutex
/// (log order == apply order on every replica); reads are lock-free
/// against each other and never block behind a write that is executing on
/// the replicas (state snapshots take a short mutex). Lock order is
/// write_mu_ -> mu_; replica Execute() calls are made holding write_mu_
/// at most (writes, catch-up) or nothing (reads, pings).

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "dsp/service.h"

namespace csxa::dsp {

/// \brief Where a replica stands in the group.
enum class ReplicaState : uint8_t {
  kInSync,   ///< serving reads, receiving writes
  kSuspect,  ///< failed a request or a beat; out of rotation
  kLagging,  ///< caught serving stale state; needs full catch-up
};

/// \brief Human-readable name for a ReplicaState (e.g. "in-sync").
const char* ReplicaStateName(ReplicaState state);

/// \brief Replication knobs.
struct ReplicationOptions {
  /// Replicas (counting the primary) that must apply a write before it is
  /// acked. 0 means majority (n/2 + 1). Clamped to [1, n].
  size_t write_quorum = 0;
};

/// \brief Monotone counters of the replication layer.
struct ReplicationStats {
  uint64_t writes = 0;            ///< quorum-acked writes
  uint64_t quorum_failures = 0;   ///< writes acked by fewer than quorum
  uint64_t read_reroutes = 0;     ///< reads served by a non-first choice
  uint64_t stale_reads_detected = 0;  ///< stale replies caught and bypassed
  /// Never incremented, so always 0: a replica layer cannot count the
  /// stale replies it fails to catch. Kept for the reports that print it.
  uint64_t stale_reads_served = 0;
  uint64_t primary_promotions = 0;    ///< failovers of the primary role
  uint64_t reintegrations = 0;        ///< replicas caught up and rejoined
  uint64_t catchup_ops_replayed = 0;  ///< log entries replayed in catch-up
  uint64_t heartbeats = 0;            ///< ticks * replicas probed
  uint64_t heartbeat_failures = 0;    ///< probes that failed
};

/// \brief Service decorator running N backends as one replica group.
class ReplicatedService : public Service {
 public:
  /// Called (outside all locks) after a write reaches quorum: the policy
  /// update invalidation fan-out hooks in here (dissem/invalidation.h).
  using WriteCommitHook =
      std::function<void(const std::string& doc_id, uint64_t rules_version)>;

  /// `replicas` must be non-empty and outlive the group. All replicas are
  /// assumed empty and identical at construction; replica 0 is the
  /// initial primary.
  ReplicatedService(std::vector<Service*> replicas,
                    ReplicationOptions options);
  explicit ReplicatedService(std::vector<Service*> replicas)
      : ReplicatedService(std::move(replicas), ReplicationOptions{}) {}

  Result<Response> Execute(Request request) override;
  /// The current primary's view of the store (aggregating replicas would
  /// multiply document counts).
  ServiceStats stats() const override;

  /// One heartbeat round on the modeled clock: ping every replica, demote
  /// the unresponsive, reintegrate (catch up) the recovered, and make
  /// sure the primary role is held by an in-sync replica.
  void HeartbeatTick();

  /// Installs the post-commit hook (pass {} to clear).
  void set_on_write_committed(WriteCommitHook hook);

  size_t replica_count() const { return replicas_.size(); }
  size_t primary() const;
  std::vector<ReplicaState> replica_states() const;
  ReplicationStats replication_stats() const;
  /// Highest rules version acked to a writer for `doc_id` (0 if none).
  uint64_t committed_version(const std::string& doc_id) const;
  /// Op-log length (tests).
  size_t log_size() const;

 private:
  struct Replica {
    Service* service = nullptr;
    ReplicaState state = ReplicaState::kInSync;
    size_t applied_ops = 0;  ///< prefix of log_ applied on this replica
  };

  Result<Response> ExecuteWrite(Request request);
  Result<Response> ExecuteRead(Request request);
  /// Requires write_mu_. Ensures primary_ names an in-sync replica,
  /// promoting if needed; returns false when none is left.
  bool EnsurePrimaryLocked();
  /// Marks a replica out of rotation after a request-path IoError.
  void MarkSuspect(size_t index);
  /// Marks a replica caught serving stale state: full replay on rejoin.
  void MarkLagging(size_t index);
  /// Requires write_mu_. Replays the log onto `index`; true on rejoin.
  bool CatchUpLocked(size_t index);

  std::vector<Service*> replicas_;
  ReplicationOptions options_;

  /// Serializes writers and catch-up so the log order is the apply order
  /// on every replica.
  std::mutex write_mu_;
  /// Guards state_, primary_, log_, committed_ (held only for short
  /// bookkeeping sections, never across a replica call).
  mutable std::mutex mu_;
  std::vector<Replica> state_;
  size_t primary_ = 0;
  struct LogEntry {
    Request request;  ///< force_rules_version stamped with the canonical
  };
  std::vector<LogEntry> log_;
  std::map<std::string, uint64_t> committed_;
  WriteCommitHook on_write_committed_;
  std::atomic<size_t> read_cursor_{0};

  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> quorum_failures_{0};
  std::atomic<uint64_t> read_reroutes_{0};
  std::atomic<uint64_t> stale_reads_detected_{0};
  std::atomic<uint64_t> stale_reads_served_{0};
  std::atomic<uint64_t> primary_promotions_{0};
  std::atomic<uint64_t> reintegrations_{0};
  std::atomic<uint64_t> catchup_ops_replayed_{0};
  std::atomic<uint64_t> heartbeats_{0};
  std::atomic<uint64_t> heartbeat_failures_{0};
};

}  // namespace csxa::dsp

#endif  // CSXA_DSP_REPLICATED_H_
