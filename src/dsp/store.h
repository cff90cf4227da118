#ifndef CSXA_DSP_STORE_H_
#define CSXA_DSP_STORE_H_

/// \file store.h
/// \brief The untrusted Database Service Provider (Fig. 1, Fig. 3).
///
/// The DSP hosts encrypted XML documents and encrypted access rules; it is
/// *honest-but-curious at best and possibly malicious*: it never sees keys
/// or plaintext, and any tampering it attempts (chunk substitution,
/// reordering, truncation, stale rules) is caught by the card's integrity
/// checks. It serves container headers, sealed rules and chunk batches
/// with their authentication material through the dsp::Service protocol,
/// which is what makes server-side skipping — and server-side scale-out —
/// possible. The protocol semantics live in dsp::DocTable (doc_table.h);
/// this backend keeps the table in memory.
///
/// Threading: DspServer is safe for concurrent Execute() calls from any
/// number of threads. Reads (kOpenDocument, kGetChunks, kGetContainer)
/// share a reader lock; writes (kPublish, kUpdateRules, kRemove) take it
/// exclusively, so a reader always observes a consistent
/// (header, sealed rules, version) triple — never a torn pair from a
/// half-applied update. Load counters are atomics so the read fast path
/// never upgrades its lock.

#include <shared_mutex>

#include "common/status.h"
#include "dsp/doc_table.h"
#include "dsp/service.h"

namespace csxa::dsp {

/// \brief In-memory DSP backend speaking the Service protocol.
class DspServer : public Service {
 public:
  Result<Response> Execute(Request request) override;
  ServiceStats stats() const override {
    std::shared_lock lock(mu_);
    return table_.stats();
  }

  /// Number of stored documents.
  size_t size() const {
    std::shared_lock lock(mu_);
    return table_.size();
  }

 private:
  /// Guards table_ (shared for reads, exclusive for publish/update/remove).
  /// Entries are only ever mutated or destroyed under the exclusive lock,
  /// so borrowing an entry under the shared lock is safe for the duration
  /// of one Execute().
  mutable std::shared_mutex mu_;
  DocTable<> table_;
};

}  // namespace csxa::dsp

#endif  // CSXA_DSP_STORE_H_
