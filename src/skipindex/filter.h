#ifndef CSXA_SKIPINDEX_FILTER_H_
#define CSXA_SKIPINDEX_FILTER_H_

/// \file filter.h
/// \brief Driver connecting the document decoder to the streaming
/// evaluator, taking skip decisions along the way.
///
/// This is the plaintext core of what the card engine does (soe/ adds
/// decryption, integrity and transport): pull an event, let the evaluator
/// decide, and whenever a just-opened subtree is provably irrelevant, jump
/// over its bytes instead of decoding them.

#include <functional>

#include "core/evaluator.h"
#include "skipindex/codec.h"

namespace csxa::skipindex {

/// Filtering options.
struct FilterOptions {
  /// Take skips (requires an indexed document). Off = full scan baseline.
  bool enable_skip = true;
  /// Invoked after each event is processed (the SOE hooks RAM metering and
  /// cost accounting here). A non-OK status aborts the run.
  std::function<Status()> on_event;
};

/// Outcome counters.
struct FilterStats {
  /// Bytes jumped over thanks to the index.
  uint64_t bytes_skipped = 0;
  /// Number of subtree skips taken.
  size_t skips = 0;
};

/// Runs the full document through `evaluator` (which owns the output
/// sink), skipping subtrees when allowed. Feeds the final kEnd.
Status RunFiltered(DocumentDecoder* decoder,
                   core::StreamingEvaluator* evaluator,
                   const FilterOptions& options, FilterStats* stats);

/// \brief Fetch-planning probe: which bytes will a scan actually read?
///
/// Replays exactly the filtered scan RunFiltered performs — same decoder,
/// same evaluator skip decisions — over the plaintext `encoded` document,
/// but discards the output and records only the byte ranges the scan
/// reads (skipped subtrees advance the cursor without being recorded).
/// Run by whoever holds the plaintext: the owner at publish/update time,
/// or a test oracle. The card-side scan over the sealed container touches
/// the same byte positions (CTR encryption is position preserving), so
/// these ranges — pushed through codec's ChunkMap — are the exact chunk
/// runs that scan will fetch. `rules` is the subject's rule slice;
/// `query` may be null (whole authorized view).
Result<std::vector<ByteRange>> CollectTouchedRanges(
    Span encoded, const std::vector<core::AccessRule>& rules,
    const xpath::PathExpr* query, bool enable_skip);

}  // namespace csxa::skipindex

#endif  // CSXA_SKIPINDEX_FILTER_H_
