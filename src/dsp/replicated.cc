#include "dsp/replicated.h"

#include "common/logging.h"

namespace csxa::dsp {

const char* ReplicaStateName(ReplicaState state) {
  switch (state) {
    case ReplicaState::kInSync:
      return "in-sync";
    case ReplicaState::kSuspect:
      return "suspect";
    case ReplicaState::kLagging:
      return "lagging";
  }
  return "unknown";
}

ReplicatedService::ReplicatedService(std::vector<Service*> replicas,
                                     ReplicationOptions options)
    : replicas_(std::move(replicas)), options_(options) {
  CSXA_CHECK(!replicas_.empty());
  state_.resize(replicas_.size());
  for (size_t i = 0; i < replicas_.size(); ++i) {
    state_[i].service = replicas_[i];
  }
  if (options_.write_quorum == 0) {
    options_.write_quorum = replicas_.size() / 2 + 1;
  }
  if (options_.write_quorum > replicas_.size()) {
    options_.write_quorum = replicas_.size();
  }
}

Result<Response> ReplicatedService::Execute(Request request) {
  return IsWrite(request.op) ? ExecuteWrite(std::move(request))
                             : ExecuteRead(std::move(request));
}

bool ReplicatedService::EnsurePrimaryLocked() {
  std::lock_guard lock(mu_);
  if (state_[primary_].state == ReplicaState::kInSync) return true;
  for (size_t i = 0; i < state_.size(); ++i) {
    if (state_[i].state == ReplicaState::kInSync) {
      primary_ = i;
      primary_promotions_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ReplicatedService::MarkSuspect(size_t index) {
  std::lock_guard lock(mu_);
  if (state_[index].state == ReplicaState::kInSync) {
    state_[index].state = ReplicaState::kSuspect;
  }
}

void ReplicatedService::MarkLagging(size_t index) {
  std::lock_guard lock(mu_);
  state_[index].state = ReplicaState::kLagging;
  // The replica acked something it never applied (or missed an ack we
  // recorded): its prefix bookkeeping cannot be trusted — rebuild from the
  // start of the log on reintegration.
  state_[index].applied_ops = 0;
}

Result<Response> ReplicatedService::ExecuteWrite(Request request) {
  std::unique_lock wl(write_mu_);

  // Apply on the primary first: its DspServer assigns the canonical rules
  // version. A primary that fails with IoError is demoted on the spot
  // (passive detection) and the next in-sync replica is promoted.
  Result<Response> primary_result = Status::IoError("unreachable");
  size_t p = 0;
  for (;;) {
    if (!EnsurePrimaryLocked()) {
      return Status::IoError("no in-sync replica can take writes");
    }
    {
      std::lock_guard lock(mu_);
      p = primary_;
    }
    Request attempt = request;
    primary_result = state_[p].service->Execute(std::move(attempt));
    if (primary_result.ok()) break;
    if (primary_result.status().code() != StatusCode::kIoError) {
      // Authoritative rejection (e.g. updating a document that does not
      // exist): not a fault, nothing was applied, nothing is logged.
      return primary_result;
    }
    MarkSuspect(p);
  }

  const uint64_t canonical = primary_result.value().rules_version;
  // The logged form of the op carries the canonical version, so backup
  // applies and catch-up replays converge on the primary's history.
  LogEntry entry;
  entry.request = std::move(request);
  if (entry.request.op != Op::kRemove) {
    entry.request.force_rules_version = canonical;
  }

  size_t log_index = 0;
  std::vector<size_t> backups;
  {
    std::lock_guard lock(mu_);
    log_.push_back(entry);
    log_index = log_.size();
    state_[p].applied_ops = log_index;
    for (size_t i = 0; i < state_.size(); ++i) {
      if (i != p && state_[i].state == ReplicaState::kInSync) {
        backups.push_back(i);
      }
    }
  }

  size_t acks = 1;  // the primary
  for (size_t r : backups) {
    Request replica_req = entry.request;
    Result<Response> res = state_[r].service->Execute(std::move(replica_req));
    const bool applied =
        res.ok() || (entry.request.op == Op::kRemove &&
                     res.status().code() == StatusCode::kNotFound);
    if (applied) {
      std::lock_guard lock(mu_);
      state_[r].applied_ops = log_index;
      ++acks;
    } else if (res.status().code() == StatusCode::kIoError) {
      MarkSuspect(r);
    } else {
      // An in-sync backup rejecting an op the primary accepted has
      // silently diverged (e.g. a blackholed earlier write): rebuild it.
      MarkLagging(r);
    }
  }

  const std::string doc_id = entry.request.doc_id;
  {
    // The committed version rises even when quorum fails below: the op IS
    // applied on the primary, and the stale-read guard must never let a
    // replica serve below anything a reader might already have seen.
    std::lock_guard lock(mu_);
    if (entry.request.op == Op::kRemove) {
      committed_.erase(doc_id);
    } else if (uint64_t& v = committed_[doc_id]; canonical > v) {
      v = canonical;
    }
  }

  if (acks < options_.write_quorum) {
    quorum_failures_.fetch_add(1, std::memory_order_relaxed);
    // At-least-once: the write is applied on the primary (and possibly
    // some backups) but under-replicated. The caller retries; version
    // monotonicity makes the duplicate apply safe.
    return Status::IoError("write acked by " + std::to_string(acks) + "/" +
                           std::to_string(options_.write_quorum) +
                           " required replicas");
  }
  writes_.fetch_add(1, std::memory_order_relaxed);

  WriteCommitHook hook;
  {
    std::lock_guard lock(mu_);
    hook = on_write_committed_;
  }
  wl.unlock();
  if (hook && entry.request.op != Op::kRemove) hook(doc_id, canonical);
  return primary_result;
}

Result<Response> ReplicatedService::ExecuteRead(Request request) {
  std::vector<size_t> candidates;
  uint64_t committed = 0;
  {
    std::lock_guard lock(mu_);
    const size_t n = state_.size();
    const size_t start =
        read_cursor_.fetch_add(1, std::memory_order_relaxed) % n;
    for (size_t k = 0; k < n; ++k) {
      const size_t i = (start + k) % n;
      if (state_[i].state == ReplicaState::kInSync) candidates.push_back(i);
    }
    if (request.op != Op::kPing) {
      if (auto it = committed_.find(request.doc_id); it != committed_.end()) {
        committed = it->second;
      }
    }
  }
  if (candidates.empty()) {
    return Status::IoError("no in-sync replica reachable");
  }

  Status last = Status::IoError("no in-sync replica reachable");
  for (size_t k = 0; k < candidates.size(); ++k) {
    const size_t r = candidates[k];
    Request attempt = request;
    Result<Response> res = state_[r].service->Execute(std::move(attempt));
    if (!res.ok()) {
      const StatusCode code = res.status().code();
      if (code == StatusCode::kIoError) {
        MarkSuspect(r);
        last = res.status();
        continue;
      }
      if (code == StatusCode::kNotFound && committed > 0) {
        // The group acked a version of this document to a writer; this
        // replica missed the publish. Not an authoritative miss.
        stale_reads_detected_.fetch_add(1, std::memory_order_relaxed);
        MarkLagging(r);
        last = Status::IoError("replica lagging (missed committed doc)");
        continue;
      }
      return res;  // authoritative NotFound / access error
    }
    if (request.op != Op::kPing && res.value().rules_version < committed) {
      // Below the version acked to its writer — including the fabricated
      // version-0 reply of a blackholed read: never serve it. (Vacuous
      // when committed == 0; every store read op reports its version.)
      stale_reads_detected_.fetch_add(1, std::memory_order_relaxed);
      MarkLagging(r);
      last = Status::IoError("replica lagging (stale rules version)");
      continue;
    }
    if (k > 0) read_reroutes_.fetch_add(1, std::memory_order_relaxed);
    return res;
  }
  return last;
}

void ReplicatedService::HeartbeatTick() {
  const size_t n = replicas_.size();
  std::vector<size_t> recovered;
  for (size_t i = 0; i < n; ++i) {
    heartbeats_.fetch_add(1, std::memory_order_relaxed);
    Request ping;
    ping.op = Op::kPing;
    Result<Response> res = replicas_[i]->Execute(std::move(ping));
    std::lock_guard lock(mu_);
    Replica& rep = state_[i];
    if (res.ok()) {
      if (rep.state != ReplicaState::kInSync) recovered.push_back(i);
    } else {
      heartbeat_failures_.fetch_add(1, std::memory_order_relaxed);
      if (rep.state == ReplicaState::kInSync) {
        rep.state = ReplicaState::kSuspect;
      }
    }
  }
  for (size_t i : recovered) {
    std::lock_guard wl(write_mu_);
    CatchUpLocked(i);
  }
  {
    std::lock_guard wl(write_mu_);
    EnsurePrimaryLocked();
  }
}

bool ReplicatedService::CatchUpLocked(size_t index) {
  size_t from = 0;
  size_t target = 0;
  {
    std::lock_guard lock(mu_);
    Replica& rep = state_[index];
    if (rep.state == ReplicaState::kInSync) return true;  // raced, done
    from = rep.applied_ops;
    target = log_.size();  // frozen: writers need write_mu_, which we hold
  }
  bool restarted = false;
  uint64_t replayed = 0;
  for (size_t i = from; i < target; ++i) {
    // A lost response (applied-but-unacked timeout) is transient: replaying
    // the entry is idempotent, so give each one a small retry budget and
    // only abort the round when the replica looks genuinely unreachable.
    // Without this, a long log behind a lossy link aborts on the first
    // dropped ack and catch-up crawls one heartbeat-sized bite at a time.
    Result<Response> res = Status::IoError("unreachable");
    for (int attempt = 0; attempt < 3; ++attempt) {
      Request replay = log_[i].request;
      res = state_[index].service->Execute(std::move(replay));
      ++replayed;
      if (res.status().code() != StatusCode::kIoError) break;
    }
    const bool applied =
        res.ok() || (log_[i].request.op == Op::kRemove &&
                     res.status().code() == StatusCode::kNotFound);
    if (applied) continue;
    if (res.status().code() == StatusCode::kIoError || restarted) {
      // Unreachable again mid-replay (or diverged beyond a full rebuild):
      // stays out of rotation until a later heartbeat retries. Keep the
      // cleanly replayed prefix — re-replaying entry i is idempotent
      // (forced versions, overwriting republishes), so the next attempt
      // resumes here instead of restarting the whole suffix. Without
      // this, a long op-log (a thousand-document fleet) with sprinkled
      // response-loss faults makes all-or-nothing catch-up vanishingly
      // unlikely to ever finish, and the replica never reintegrates.
      {
        std::lock_guard lock(mu_);
        state_[index].applied_ops = i;
      }
      catchup_ops_replayed_.fetch_add(replayed, std::memory_order_relaxed);
      return false;
    }
    // Divergence the suffix cannot fix (an update replay hitting a doc a
    // blackholed publish never stored): replay the whole log — forced
    // versions and overwriting republishes make a full replay idempotent.
    restarted = true;
    i = static_cast<size_t>(-1);  // the loop increment restarts at 0
  }
  catchup_ops_replayed_.fetch_add(replayed, std::memory_order_relaxed);
  {
    std::lock_guard lock(mu_);
    Replica& rep = state_[index];
    rep.applied_ops = target;
    rep.state = ReplicaState::kInSync;
  }
  reintegrations_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

ServiceStats ReplicatedService::stats() const {
  Service* primary_service = nullptr;
  {
    std::lock_guard lock(mu_);
    primary_service = state_[primary_].service;
  }
  return primary_service->stats();
}

void ReplicatedService::set_on_write_committed(WriteCommitHook hook) {
  std::lock_guard lock(mu_);
  on_write_committed_ = std::move(hook);
}

size_t ReplicatedService::primary() const {
  std::lock_guard lock(mu_);
  return primary_;
}

std::vector<ReplicaState> ReplicatedService::replica_states() const {
  std::lock_guard lock(mu_);
  std::vector<ReplicaState> out;
  out.reserve(state_.size());
  for (const Replica& rep : state_) out.push_back(rep.state);
  return out;
}

ReplicationStats ReplicatedService::replication_stats() const {
  ReplicationStats out;
  out.writes = writes_.load(std::memory_order_relaxed);
  out.quorum_failures = quorum_failures_.load(std::memory_order_relaxed);
  out.read_reroutes = read_reroutes_.load(std::memory_order_relaxed);
  out.stale_reads_detected =
      stale_reads_detected_.load(std::memory_order_relaxed);
  out.stale_reads_served = stale_reads_served_.load(std::memory_order_relaxed);
  out.primary_promotions =
      primary_promotions_.load(std::memory_order_relaxed);
  out.reintegrations = reintegrations_.load(std::memory_order_relaxed);
  out.catchup_ops_replayed =
      catchup_ops_replayed_.load(std::memory_order_relaxed);
  out.heartbeats = heartbeats_.load(std::memory_order_relaxed);
  out.heartbeat_failures =
      heartbeat_failures_.load(std::memory_order_relaxed);
  return out;
}

uint64_t ReplicatedService::committed_version(const std::string& doc_id) const {
  std::lock_guard lock(mu_);
  auto it = committed_.find(doc_id);
  return it != committed_.end() ? it->second : 0;
}

size_t ReplicatedService::log_size() const {
  std::lock_guard lock(mu_);
  return log_.size();
}

}  // namespace csxa::dsp
