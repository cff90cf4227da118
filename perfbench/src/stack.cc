#include "stack.h"

#include <future>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "crypto/keys.h"
#include "dsp/durable.h"
#include "dsp/store.h"

namespace perfbench {

namespace dsp = csxa::dsp;
using csxa::Result;

namespace {

uint8_t OpCode(const dsp::Request& request) {
  return static_cast<uint8_t>(request.op);
}

// A failed call is one whose result is an error, except the NotFound a
// remove sweep expects from shards that never held the document.
bool Succeeded(uint8_t op, const Result<dsp::Response>& result) {
  return result.ok() ||
         (op == static_cast<uint8_t>(dsp::Op::kRemove) &&
          result.status().code() == csxa::StatusCode::kNotFound);
}

}  // namespace

Result<dsp::Response> TimedService::Execute(dsp::Request request) {
  const uint8_t op = OpCode(request);
  ScopedSpan span(tracer_, layer_, op);
  Result<dsp::Response> result = inner_->Execute(std::move(request));
  span.set_ok(Succeeded(op, result));
  return result;
}

Result<dsp::Response> TimedDispatch::Execute(dsp::Request request) {
  const uint8_t op = OpCode(request);
  ScopedSpan span(tracer_, Layer::kDispatch, op);
  std::future<Result<dsp::Response>> future;
  {
    std::lock_guard lock(mu_);
    pending_[request.doc_id].push_back(Tracer::Current());
    future = dispatcher_->Submit(std::move(request));
  }
  Result<dsp::Response> result = future.get();
  span.set_ok(Succeeded(op, result));
  return result;
}

Tracer::Context TimedDispatch::Adopt(const std::string& doc_id) {
  std::lock_guard lock(mu_);
  auto it = pending_.find(doc_id);
  if (it == pending_.end() || it->second.empty()) return Tracer::Context{};
  Tracer::Context context = it->second.front();
  it->second.erase(it->second.begin());
  if (it->second.empty()) pending_.erase(it);
  return context;
}

Result<dsp::Response> TimedReplicate::Execute(dsp::Request request) {
  OpScope scope(0);
  Tracer::Current() = link_->Adopt(request.doc_id);
  const uint8_t op = OpCode(request);
  ScopedSpan span(tracer_, Layer::kReplicate, op);
  Result<dsp::Response> result = inner_->Execute(std::move(request));
  span.set_ok(Succeeded(op, result));
  return result;
}

Result<std::unique_ptr<dsp::File>> ListingEnv::Open(const std::string& path,
                                                    bool create) {
  {
    std::lock_guard lock(mu_);
    paths_.insert(path);
  }
  return mem_.Open(path, create);
}

uint64_t ListingEnv::StoredBytes() const {
  std::lock_guard lock(mu_);
  uint64_t total = 0;
  for (const std::string& path : paths_) {
    if (!mem_.Exists(path)) continue;
    auto bytes = mem_.Snapshot(path);
    if (bytes.ok()) total += bytes.value().size();
  }
  return total;
}

Stack::Stack(Backend backend, uint64_t seed, Tracer* tracer)
    : tracer_(tracer) {
  std::vector<dsp::Service*> replica_ptrs;
  for (size_t r = 0; r < kReplicas; ++r) {
    std::vector<dsp::Service*> shard_ptrs;
    for (size_t s = 0; s < kShards; ++s) {
      if (backend == Backend::kDurable) {
        envs_.push_back(std::make_unique<ListingEnv>());
        dsp::DurableOptions options;
        options.directory = "store";
        options.store_id = "r" + std::to_string(r) + "-s" + std::to_string(s);
        csxa::Rng key_rng(seed * 63 + r * 17 + s);
        options.key = csxa::crypto::SymmetricKey::Generate(&key_rng);
        options.env = envs_.back().get();
        auto store = dsp::DurableServer::Open(options);
        CSXA_CHECK(store.ok());
        stores_.push_back(std::move(store).value());
      } else {
        stores_.push_back(std::make_unique<dsp::DspServer>());
      }
      dsp::Service* shard = stores_.back().get();
      if (tracer_ != nullptr) {
        timers_.push_back(
            std::make_unique<TimedService>(tracer_, Layer::kStore, shard));
        shard = timers_.back().get();
      }
      shard_ptrs.push_back(shard);
    }
    routers_.push_back(std::make_unique<dsp::ShardedService>(shard_ptrs));
    dsp::Service* replica = routers_.back().get();
    if (tracer_ != nullptr) {
      timers_.push_back(
          std::make_unique<TimedService>(tracer_, Layer::kShard, replica));
      replica = timers_.back().get();
    }
    replica_ptrs.push_back(replica);
  }
  replicated_ = std::make_unique<dsp::ReplicatedService>(
      replica_ptrs, dsp::ReplicationOptions{});
  replicated_->set_on_write_committed(
      [this](const std::string& doc_id, uint64_t rules_version) {
        ScopedSpan span(tracer_, Layer::kFanout);
        fanout_.Publish(doc_id, rules_version);
      });

  dsp::AsyncDispatcher::Options dispatch_options;
  dispatch_options.workers = kWorkers;
  if (tracer_ == nullptr) {
    dispatcher_ = std::make_unique<dsp::AsyncDispatcher>(replicated_.get(),
                                                         dispatch_options);
  } else {
    timed_dispatch_ = std::make_unique<TimedDispatch>(tracer_);
    timed_replicate_ = std::make_unique<TimedReplicate>(
        tracer_, timed_dispatch_.get(), replicated_.get());
    dispatcher_ = std::make_unique<dsp::AsyncDispatcher>(
        timed_replicate_.get(), dispatch_options);
    timed_dispatch_->Attach(dispatcher_.get());
  }
  dsp::Service* above_dispatch = dispatcher_.get();
  if (tracer_ != nullptr) above_dispatch = timed_dispatch_.get();

  cache_ = std::make_unique<dsp::CachingClient>(above_dispatch);
  dsp::CachingClient* cache = cache_.get();
  fanout_.Subscribe([cache](const std::string& doc_id, uint64_t version) {
    cache->Invalidate(doc_id, version);
  });
  dsp::Service* above_cache = cache_.get();
  if (tracer_ != nullptr) {
    timers_.push_back(
        std::make_unique<TimedService>(tracer_, Layer::kCache, above_cache));
    above_cache = timers_.back().get();
  }
  retry_ = std::make_unique<dsp::RetryingClient>(above_cache,
                                                 dsp::RetryOptions{});
  top_ = retry_.get();
  if (tracer_ != nullptr) {
    timers_.push_back(
        std::make_unique<TimedService>(tracer_, Layer::kRetry, top_));
    top_ = timers_.back().get();
  }
}

Stack::~Stack() = default;

std::vector<uint64_t> Stack::shard_requests() const {
  std::vector<uint64_t> total(kShards, 0);
  for (const auto& router : routers_) {
    std::vector<uint64_t> counts = router->shard_requests();
    for (size_t i = 0; i < counts.size() && i < total.size(); ++i) {
      total[i] += counts[i];
    }
  }
  return total;
}

uint64_t Stack::StoredBytes() const {
  uint64_t total = 0;
  for (const auto& env : envs_) total += env->StoredBytes();
  return total;
}

}  // namespace perfbench
