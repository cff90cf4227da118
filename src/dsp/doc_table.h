#ifndef CSXA_DSP_DOC_TABLE_H_
#define CSXA_DSP_DOC_TABLE_H_

/// \file doc_table.h
/// \brief The DSP protocol core every storage backend serves through.
///
/// The paper dissociates access rights from encryption: the DSP keeps a
/// sealed container next to a sealed rule blob, so a policy update only
/// replaces the blob and bumps the document's rules version, and
/// version-keyed caches rely on that version never going backwards.
/// DocTable holds that version rule, the read ops with their modeled
/// framing, and the load counters, once for every backend. A backend's own
/// per-document metadata rides in the entry (`Meta`), so a read costs one
/// map lookup.
///
/// Threading: DocTable has no lock of its own. Its owner guards it with one
/// shared_mutex — lookups and read ops under the shared lock, mutators
/// under the exclusive one. Counters are relaxed atomics.

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/container.h"
#include "dsp/service.h"

namespace csxa::dsp {

/// \brief What a backend serves one document from.
struct DocState {
  /// Stable address for `container`'s zero-copy view. Null while the
  /// document is not loaded (a DurableServer warm open loads lazily).
  std::unique_ptr<Bytes> container_bytes;
  crypto::SecureContainer container;
  Bytes sealed_rules;
  uint64_t rules_version = 0;

  bool loaded() const { return container_bytes != nullptr; }
  /// Parses `raw` and installs it as the container; unchanged on failure.
  Status SetContainer(Bytes raw);
};

/// \brief The half of DocTable that does not depend on `Meta`: the read
/// ops, the modeled framing and the load counters.
class DocProtocol {
 public:
  /// Serves kOpenDocument, kGetChunks or kGetContainer from a loaded
  /// document.
  Result<Response> Read(const Request& request, const DocState& doc) const;
  /// The kPing reply.
  Response Ping() const;
  /// Accounts one finished Execute() and passes its result through.
  Result<Response> Served(Result<Response> result) const;

 protected:
  ServiceStats Stats(uint64_t documents) const;

  // Relaxed order is fine: they are statistics.
  mutable std::atomic<uint64_t> requests_{0};
  mutable std::atomic<uint64_t> chunks_served_{0};
  mutable std::atomic<uint64_t> bytes_served_{0};
  mutable std::atomic<uint64_t> not_modified_{0};
};

struct NoMeta {};

/// \brief doc_id → serving entry, plus the retired-version tombstones.
template <typename Meta = NoMeta>
class DocTable : public DocProtocol {
 public:
  struct Entry : DocState {
    [[no_unique_address]] Meta meta;
  };

  size_t size() const { return docs_.size(); }
  ServiceStats stats() const { return Stats(docs_.size()); }

  /// The live entry for `doc_id`, or null.
  Entry* Find(const std::string& doc_id) {
    auto it = docs_.find(doc_id);
    return it == docs_.end() ? nullptr : &it->second;
  }
  const Entry* Find(const std::string& doc_id) const {
    return const_cast<DocTable*>(this)->Find(doc_id);
  }
  /// The live entry for `doc_id`, or kNotFound.
  Result<Entry*> Lookup(const std::string& doc_id) {
    Entry* entry = Find(doc_id);
    if (entry == nullptr) return Status::NotFound("document " + doc_id);
    return entry;
  }

  /// The version the next publish or rules update of `doc_id` stores:
  /// `forced` as-is when non-zero (a replication layer stamping the
  /// primary's canonical version), else floor + 1, where the floor is the
  /// live version or, for a removed id, its tombstone. Without the
  /// tombstone, a remove-then-republish would revisit a version that
  /// caches hold, and they would serve the old header and rules as
  /// not-modified against the new chunks.
  uint64_t NextVersion(const std::string& doc_id, uint64_t forced) const {
    if (forced != 0) return forced;
    if (const Entry* live = Find(doc_id)) return live->rules_version + 1;
    auto retired = retired_versions_.find(doc_id);
    return (retired == retired_versions_.end() ? 0 : retired->second) + 1;
  }

  /// Stores `entry` as the live document, replacing any previous one.
  Entry* Publish(const std::string& doc_id, Entry entry) {
    return &docs_.insert_or_assign(doc_id, std::move(entry)).first->second;
  }
  /// Drops the live document and tombstones `version`, so a later
  /// republish of the id stays above it.
  void Remove(const std::string& doc_id, uint64_t version) {
    retired_versions_[doc_id] = version;
    docs_.erase(doc_id);
  }

  /// Calls fn(doc_id, entry) for every live document, in doc_id order.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (auto& [doc_id, entry] : docs_) fn(doc_id, entry);
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [doc_id, entry] : docs_) fn(doc_id, entry);
  }

 private:
  std::map<std::string, Entry> docs_;
  std::map<std::string, uint64_t> retired_versions_;
};

}  // namespace csxa::dsp

#endif  // CSXA_DSP_DOC_TABLE_H_
