#ifndef CSXA_DSP_SHARDED_H_
#define CSXA_DSP_SHARDED_H_

/// \file sharded.h
/// \brief Horizontal scale-out: one Service routing doc_ids across N
/// backend Services.
///
/// The DSP is untrusted storage that only holds and serves ciphertext, so
/// scaling it out is pure routing: DocHash(doc_id) picks the home shard,
/// and every operation on a document goes to that shard alone. The shard
/// list is fixed when the router is built, so a document only ever lives
/// on its home shard. Only kPing visits every shard: a fleet is reachable
/// when all its shards are. Terminals are oblivious — they speak the same
/// Execute() protocol to one shard or to a fleet.
///
/// Routing away from crashed or lagging replicas is ReplicatedService's
/// job (replicated.h); stack the two (replica groups of sharded fleets)
/// to get both.
///
/// Threading: the router holds no mutable routing state — only atomic
/// per-shard counters — so concurrent Execute() calls are safe as long as
/// the backend shards are themselves thread-safe (DspServer is).

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "dsp/service.h"

namespace csxa::dsp {

/// \brief Service decorator fanning one namespace out over N backends.
class ShardedService : public Service {
 public:
  /// `shards` must be non-empty and outlive the router.
  explicit ShardedService(std::vector<Service*> shards);

  Result<Response> Execute(Request request) override;
  /// Aggregate load over all shards.
  ServiceStats stats() const override;

  /// Home shard of a document: DocHash(doc_id) modulo the shard count.
  size_t ShardFor(const std::string& doc_id) const;
  size_t shard_count() const { return shards_.size(); }

  /// Requests issued to each shard; a point-in-time snapshot under
  /// concurrency.
  std::vector<uint64_t> shard_requests() const;

 private:
  std::vector<Service*> shards_;
  // Atomic per-shard counters: the router itself is lock-free.
  std::unique_ptr<std::atomic<uint64_t>[]> shard_requests_;
};

}  // namespace csxa::dsp

#endif  // CSXA_DSP_SHARDED_H_
