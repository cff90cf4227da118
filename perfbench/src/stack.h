#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

/// \file stack.h
/// \brief The serving stack under test, built from the library's public
/// classes: RetryingClient → CachingClient → AsyncDispatcher (2 workers)
/// → ReplicatedService (3 replicas, majority quorum) → ShardedService
/// (4 shards each) → DspServer or DurableServer on a dsp::MemEnv — the
/// workload::RunLoad topology without fault injection.
///
/// With a tracer, a timing decorator sits between every pair of layers;
/// without one, the layers are wired directly and nothing else differs.

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "dissem/invalidation.h"
#include "dsp/async.h"
#include "dsp/blockfile.h"
#include "dsp/caching.h"
#include "dsp/replicated.h"
#include "dsp/retrying.h"
#include "dsp/service.h"
#include "dsp/sharded.h"
#include "pki/registry.h"
#include "trace.h"

namespace perfbench {

enum class Backend { kMemory, kDurable };

/// dsp::Service decorator recording one span per Execute() call.
class TimedService : public csxa::dsp::Service {
 public:
  TimedService(Tracer* tracer, Layer layer, csxa::dsp::Service* inner)
      : tracer_(tracer), layer_(layer), inner_(inner) {}
  csxa::Result<csxa::dsp::Response> Execute(
      csxa::dsp::Request request) override;
  csxa::dsp::ServiceStats stats() const override { return inner_->stats(); }

 private:
  Tracer* tracer_;
  Layer layer_;
  csxa::dsp::Service* inner_;
};

/// The dispatcher seen from the client thread, and the link across it.
///
/// Requests of one document execute on the dispatcher in submission order,
/// so the span that submitted a request is queued per doc_id under the same
/// lock as the submission, and the first span recorded on the worker for
/// that doc_id (the replication layer's) adopts the queue's head as its
/// parent.
class TimedDispatch : public csxa::dsp::Service {
 public:
  explicit TimedDispatch(Tracer* tracer) : tracer_(tracer) {}
  /// Sets the dispatcher (built after the worker-side decorator that links
  /// back here); must precede the first Execute().
  void Attach(csxa::dsp::AsyncDispatcher* dispatcher) {
    dispatcher_ = dispatcher;
  }
  csxa::Result<csxa::dsp::Response> Execute(
      csxa::dsp::Request request) override;
  csxa::dsp::ServiceStats stats() const override {
    return dispatcher_->stats();
  }

  /// Worker side: the context of the span that submitted the oldest
  /// outstanding request for `doc_id`.
  Tracer::Context Adopt(const std::string& doc_id);

 private:
  Tracer* tracer_;
  csxa::dsp::AsyncDispatcher* dispatcher_ = nullptr;
  std::mutex mu_;  // guards pending_ and orders submissions with it
  std::map<std::string, std::vector<Tracer::Context>> pending_;
};

/// The replication layer as entered on a dispatcher worker: adopts the
/// submitting span's context, then times the call like TimedService.
class TimedReplicate : public csxa::dsp::Service {
 public:
  TimedReplicate(Tracer* tracer, TimedDispatch* link,
                 csxa::dsp::Service* inner)
      : tracer_(tracer), link_(link), inner_(inner) {}
  csxa::Result<csxa::dsp::Response> Execute(
      csxa::dsp::Request request) override;
  csxa::dsp::ServiceStats stats() const override { return inner_->stats(); }

 private:
  Tracer* tracer_;
  TimedDispatch* link_;
  csxa::dsp::Service* inner_;
};

/// dsp::Env forwarding to a MemEnv and remembering every path it opened, so
/// the bytes a durable store left on its volume can be summed.
class ListingEnv : public csxa::dsp::Env {
 public:
  csxa::Result<std::unique_ptr<csxa::dsp::File>> Open(const std::string& path,
                                                       bool create) override;
  bool Exists(const std::string& path) const override {
    return mem_.Exists(path);
  }
  csxa::Status Remove(const std::string& path) override {
    return mem_.Remove(path);
  }
  csxa::Status CreateDir(const std::string& path) override {
    return mem_.CreateDir(path);
  }
  csxa::Status SyncDir(const std::string& path) override {
    return mem_.SyncDir(path);
  }
  csxa::Result<csxa::Bytes> RandomBytes(size_t n) override {
    return mem_.RandomBytes(n);
  }
  /// Current size of every file on the volume.
  uint64_t StoredBytes() const;

 private:
  csxa::dsp::MemEnv mem_;
  mutable std::mutex mu_;  // guards paths_
  std::set<std::string> paths_;
};

/// One deployment. Not copyable: decorators and worker threads hold the
/// addresses of its members.
class Stack {
 public:
  static constexpr size_t kReplicas = 3;
  static constexpr size_t kShards = 4;
  static constexpr size_t kWorkers = 2;

  /// `tracer` null builds the untraced stack.
  Stack(Backend backend, uint64_t seed, Tracer* tracer);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// What terminals and publishers talk to.
  csxa::dsp::Service* top() { return top_; }
  csxa::pki::KeyRegistry* registry() { return &registry_; }
  Tracer* tracer() { return tracer_; }

  const csxa::dsp::CachingClient& cache() const { return *cache_; }
  const csxa::dsp::RetryingClient& retry() const { return *retry_; }
  const csxa::dsp::ReplicatedService& replicated() const {
    return *replicated_;
  }
  const csxa::dsp::AsyncDispatcher& dispatcher() const { return *dispatcher_; }
  const csxa::dissem::InvalidationFanout& fanout() const { return fanout_; }
  /// Requests per shard index, summed over the replicas' routers.
  std::vector<uint64_t> shard_requests() const;
  /// Bytes on every durable volume (0 for the in-memory backend).
  uint64_t StoredBytes() const;

 private:
  Tracer* tracer_;
  // Declared bottom-up: members are destroyed top-down, so the dispatcher
  // (whose workers call everything below it) is joined first.
  std::vector<std::unique_ptr<ListingEnv>> envs_;
  std::vector<std::unique_ptr<csxa::dsp::Service>> stores_;
  std::vector<std::unique_ptr<csxa::dsp::ShardedService>> routers_;
  std::vector<std::unique_ptr<csxa::dsp::Service>> timers_;
  std::unique_ptr<csxa::dsp::ReplicatedService> replicated_;
  csxa::dissem::InvalidationFanout fanout_;
  std::unique_ptr<TimedDispatch> timed_dispatch_;
  std::unique_ptr<TimedReplicate> timed_replicate_;
  std::unique_ptr<csxa::dsp::AsyncDispatcher> dispatcher_;
  std::unique_ptr<csxa::dsp::CachingClient> cache_;
  std::unique_ptr<csxa::dsp::RetryingClient> retry_;
  csxa::pki::KeyRegistry registry_;
  csxa::dsp::Service* top_ = nullptr;
};

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
