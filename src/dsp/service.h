#ifndef CSXA_DSP_SERVICE_H_
#define CSXA_DSP_SERVICE_H_

/// \file service.h
/// \brief The batch-first DSP request/response protocol.
///
/// The two limiting costs of the target architecture are "decryption in
/// the SOE and communication between the SOE, the client and the server"
/// (§2.3). This interface shapes the communication half: every interaction
/// with a DSP backend is ONE Execute(Request) -> Response exchange — one
/// modeled round trip — and the request vocabulary is deliberately batchy:
///
///  - kOpenDocument returns container header + sealed rules + rules
///    version together (the old header/rules/version triple of calls in
///    one trip), and carries the client's cached rules version so an
///    unchanged policy costs a tiny not-modified reply — the paper's
///    cheap policy-update path becomes a cache invalidation;
///  - kGetChunks takes *spans* of chunks, however many, in one trip;
///  - kGetContainer ships the whole container (full-download baseline);
///  - kPublish / kUpdateRules / kRemove are the owner-side writes.
///
/// Backends compose: DspServer is the in-memory store, ShardedService
/// routes doc_ids across N backends, ReplicatedService runs a
/// primary/backup replica group, CachingClient revalidates header +
/// sealed-rules by rules version, FaultInjectingService breaks any of
/// them on a script, and RetryingClient masks transient failures with
/// backoff. All of them speak only this protocol, which is what makes
/// the server side replaceable, scale-out-able and survivable.

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "soe/chunk_source.h"

namespace csxa::dsp {

/// \brief Request vocabulary of the DSP protocol.
enum class Op : uint8_t {
  kOpenDocument,  ///< header + sealed rules + rules version, one trip
  kGetChunks,     ///< chunk spans with their authentication material
  kGetContainer,  ///< the whole stored container (full-download baseline)
  kPublish,       ///< store container + sealed rules (version 1 for new ids;
                  ///< republishing bumps past the old version so version-keyed
                  ///< caches revalidate the new container)
  kUpdateRules,   ///< replace sealed rules, bump version (the cheap update)
  kRemove,        ///< delete the document
  kPing,          ///< liveness probe (heartbeat); carries and returns nothing
};

/// True for the ops that change stored state.
inline bool IsWrite(Op op) {
  return op == Op::kPublish || op == Op::kUpdateRules || op == Op::kRemove;
}

/// Stable FNV-1a hash of a document id: the one placement hash, picking
/// ShardedService's home shard and AsyncDispatcher's lane. It must not
/// depend on process state, so a document lands in the same place on
/// every run.
inline uint64_t DocHash(const std::string& doc_id) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : doc_id) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// \brief One DSP request. Exactly one Execute() call — one round trip —
/// regardless of how much it asks for.
struct Request {
  Op op = Op::kOpenDocument;
  std::string doc_id;
  /// kOpenDocument: rules version the client already holds; when it still
  /// matches, the response is `not_modified` and omits the bodies.
  uint64_t known_rules_version = 0;
  /// kGetChunks: the chunk ranges wanted, served in request order.
  std::vector<skipindex::ChunkRun> spans;
  /// kPublish: the sealed container.
  Bytes container;
  /// kPublish, kUpdateRules: the sealed rule-set blob.
  Bytes sealed_rules;
  /// kPublish, kUpdateRules: when non-zero, the backend stores exactly this
  /// rules version instead of assigning floor+1. Replication-internal: the
  /// replication layer stamps the primary's canonical version onto backup
  /// applies and op-log catch-up replays so every replica converges on the
  /// same version history. Client code leaves it 0.
  uint64_t force_rules_version = 0;
};

/// \brief One DSP response. Fields are populated per the request op.
struct Response {
  /// kOpenDocument: the client's known_rules_version is still current;
  /// header/sealed_rules are omitted (empty).
  bool not_modified = false;
  Bytes header;        ///< kOpenDocument: serialized public container header
  Bytes sealed_rules;  ///< kOpenDocument: the sealed rule-set blob
  uint64_t rules_version = 0;  ///< kOpenDocument, kUpdateRules
  std::vector<soe::ChunkData> chunks;  ///< kGetChunks, span order
  Bytes container;                     ///< kGetContainer
  /// kPublish/kUpdateRules/kRemove on a durable backend: the total count
  /// of committed manifest records after this mutation — a *commitment*
  /// the publisher can retain and later feed back as
  /// DurableOptions::expected_manifest_records, making a storage volume
  /// that rolls the log back (even by a single record disguised as a
  /// torn crash tail) detectable at the next open. 0 from non-durable
  /// backends.
  uint64_t commit_seq = 0;
  /// Modeled payload size of this response (server load accounting).
  uint64_t wire_bytes = 0;
};

/// \brief Aggregate server-side load counters.
struct ServiceStats {
  uint64_t requests = 0;      ///< Execute() calls served
  uint64_t chunks_served = 0;
  uint64_t bytes_served = 0;  ///< response payload bytes
  uint64_t not_modified = 0;  ///< kOpenDocument revalidation hits
  uint64_t documents = 0;     ///< documents currently stored

  ServiceStats& operator+=(const ServiceStats& o) {
    requests += o.requests;
    chunks_served += o.chunks_served;
    bytes_served += o.bytes_served;
    not_modified += o.not_modified;
    documents += o.documents;
    return *this;
  }
};

/// \brief Abstract DSP backend: one entry point, one round trip per call.
class Service {
 public:
  virtual ~Service() = default;

  /// The single protocol entry point. Takes the request by value so large
  /// payloads (kPublish containers) can be moved into the backend.
  virtual Result<Response> Execute(Request request) = 0;
  /// Load counters (decorators report their backend's view).
  virtual ServiceStats stats() const = 0;

  /// \name Typed conveniences — each is exactly one Execute() round trip.
  /// @{
  Result<Response> OpenDocument(const std::string& doc_id,
                                uint64_t known_rules_version = 0);
  Result<std::vector<soe::ChunkData>> GetChunks(
      const std::string& doc_id, std::vector<skipindex::ChunkRun> spans);
  Result<Bytes> GetContainer(const std::string& doc_id);
  Status Publish(const std::string& doc_id, Bytes container,
                 Bytes sealed_rules);
  Status UpdateRules(const std::string& doc_id, Bytes sealed_rules);
  Status Remove(const std::string& doc_id);
  /// Liveness probe: OK iff the backend (the whole fleet, for routers) is
  /// reachable. Heartbeat monitors call this, nothing else should.
  Status Ping();
  /// @}
};

/// \brief soe::ChunkProvider bound to one document on a Service (what the
/// proxy hands to the card engine in pull mode). Every batch is one
/// kGetChunks round trip; wrap it in soe::PlannedProvider to amortize.
class ServiceChunkProvider : public soe::ChunkProvider {
 public:
  ServiceChunkProvider(Service* service, std::string doc_id)
      : service_(service), doc_id_(std::move(doc_id)) {}

 protected:
  Result<std::vector<soe::ChunkData>> FetchChunks(uint32_t first,
                                                  uint32_t count) override {
    return service_->GetChunks(doc_id_, {skipindex::ChunkRun{first, count}});
  }

  /// Several runs become one multi-span kGetChunks request — the wire
  /// capability the fetch planner exists to exploit.
  Result<std::vector<soe::ChunkData>> FetchSpans(
      const std::vector<skipindex::ChunkRun>& spans) override {
    return service_->GetChunks(doc_id_, spans);
  }

 private:
  Service* service_;
  std::string doc_id_;
};

}  // namespace csxa::dsp

#endif  // CSXA_DSP_SERVICE_H_
