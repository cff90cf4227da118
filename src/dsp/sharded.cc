#include "dsp/sharded.h"

#include "common/logging.h"

namespace csxa::dsp {

ShardedService::ShardedService(std::vector<Service*> shards)
    : shards_(std::move(shards)),
      shard_requests_(new std::atomic<uint64_t>[shards_.size()]) {
  CSXA_CHECK(!shards_.empty());
  for (size_t i = 0; i < shards_.size(); ++i) shard_requests_[i] = 0;
}

size_t ShardedService::ShardFor(const std::string& doc_id) const {
  return static_cast<size_t>(DocHash(doc_id) % shards_.size());
}

std::vector<uint64_t> ShardedService::shard_requests() const {
  std::vector<uint64_t> out(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    out[i] = shard_requests_[i].load(std::memory_order_relaxed);
  }
  return out;
}

Result<Response> ShardedService::Execute(Request request) {
  auto count = [this](size_t shard) {
    shard_requests_[shard].fetch_add(1, std::memory_order_relaxed);
  };

  // A heartbeat probes the whole fleet: one unreachable shard makes the
  // endpoint unhealthy (a replica is only in-sync if every shard is).
  if (request.op == Op::kPing) {
    Response last;
    for (size_t i = 0; i < shards_.size(); ++i) {
      count(i);
      Result<Response> probe = shards_[i]->Execute(request);
      if (!probe.ok()) return probe;
      last = std::move(probe).value();
    }
    return last;
  }

  const size_t home = ShardFor(request.doc_id);
  count(home);
  return shards_[home]->Execute(std::move(request));
}

ServiceStats ShardedService::stats() const {
  ServiceStats total;
  for (const Service* shard : shards_) total += shard->stats();
  return total;
}

}  // namespace csxa::dsp
