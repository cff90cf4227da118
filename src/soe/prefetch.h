#ifndef CSXA_SOE_PREFETCH_H_
#define CSXA_SOE_PREFETCH_H_

/// \file prefetch.h
/// \brief Terminal-side prefetching decorator over a ChunkProvider.
///
/// The card consumes one chunk at a time (its RAM budget), but paying one
/// terminal<->DSP round trip per chunk is exactly the per-message cost the
/// paper calls out as a limiting factor (§2.3). PrefetchingProvider sits
/// in the terminal between the card's per-chunk requests and the remote
/// backend: a miss fetches a *window* of consecutive chunks in one round
/// trip and later card requests are answered from that window for free.
///
/// The window is driven by the skip pattern the card's filter produces:
///  - sequential consumption (next miss directly follows the last fetched
///    window) doubles the window up to `max_window` — long authorized runs
///    amortize the round trip across many chunks;
///  - a jump (the skip filter leapt somewhere unexpected) collapses the
///    window back to 1, so skip-heavy regions never pay for speculative
///    chunks the card will not read.
///
/// Prefetched-but-unread chunks stay in the terminal buffer and never
/// cross the APDU link, so card-side transfer and crypto costs are
/// byte-identical with and without prefetching — only the round-trip count
/// (and thus modeled latency) changes.
///
/// Reentrancy contract: a PrefetchingProvider (like every ChunkProvider)
/// belongs to ONE card session on one thread — its window buffer and
/// counters are unsynchronized by design. Concurrency lives below, in the
/// shared dsp::Service the provider fetches from (DspServer,
/// ShardedService, CachingClient and AsyncDispatcher are thread-safe);
/// each concurrent session constructs its own provider over that shared
/// backend.

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "core/rule.h"
#include "soe/chunk_source.h"
#include "xpath/ast.h"

namespace csxa::soe {

/// Prefetch-window policy knobs.
struct PrefetchOptions {
  /// Upper bound of the adaptive window, in chunks. 1 disables batching
  /// (every card request is its own round trip).
  uint32_t max_window = 8;
};

/// \brief Windowed read-ahead over another ChunkProvider.
class PrefetchingProvider : public ChunkProvider {
 public:
  /// `chunk_count` bounds read-ahead at the end of the container (the
  /// terminal knows it from the public header).
  PrefetchingProvider(ChunkProvider* inner, uint32_t chunk_count,
                      PrefetchOptions options = {})
      : inner_(inner), chunk_count_(chunk_count), options_(options) {
    if (options_.max_window == 0) options_.max_window = 1;
  }

  uint64_t TotalWireBytes() const override { return inner_->TotalWireBytes(); }
  /// Round trips are whatever the backend actually performed; window hits
  /// cost none.
  uint64_t round_trips() const override { return inner_->round_trips(); }

  /// \name Window statistics
  /// @{
  /// Batches fetched from the backend (== backend round trips caused here).
  uint64_t fetches() const { return fetches_; }
  /// Requests answered entirely from the buffered window.
  uint64_t window_hits() const { return window_hits_; }
  /// Chunks pulled from the backend, including speculative ones.
  uint64_t chunks_fetched() const { return chunks_fetched_; }
  /// @}

 protected:
  Result<std::vector<ChunkData>> FetchChunks(uint32_t first,
                                             uint32_t count) override;

 private:
  ChunkProvider* inner_;
  uint32_t chunk_count_;
  PrefetchOptions options_;

  std::vector<ChunkData> buf_;  // window [buf_first_, buf_first_+buf_.size())
  uint32_t buf_first_ = 0;
  uint32_t window_ = 1;
  uint32_t next_expected_ = 0;

  uint64_t fetches_ = 0;
  uint64_t window_hits_ = 0;
  uint64_t chunks_fetched_ = 0;
};

/// \brief The compiled fetch schedule of one query: the ordered,
/// contiguous chunk runs the scan will touch.
///
/// A plan is ADVISORY, never authoritative: it decides only which chunks
/// the terminal prefetches into its buffer. A wrong or stale plan costs
/// extra round trips (fallback to the inner provider), never correctness
/// — the card verifies and decrypts every chunk it consumes exactly as in
/// an unplanned run, so card transfer/crypto bytes are identical by
/// construction.
struct FetchPlan {
  /// Sorted, disjoint, coalesced chunk runs.
  std::vector<skipindex::ChunkRun> runs;

  /// Total chunks the plan covers.
  uint64_t total_chunks() const {
    uint64_t n = 0;
    for (const skipindex::ChunkRun& r : runs) n += r.count;
    return n;
  }
  /// True when `chunk` lies inside one of the runs.
  bool Covers(uint32_t chunk) const;
  /// Sorts, de-duplicates and coalesces `runs` in place (idempotent).
  void Normalize();

  /// Builds a plan from an observed per-chunk request sequence (what a
  /// RecordingProvider captured from a live session): the terminal's
  /// learn-on-first-run path.
  static FetchPlan FromChunkSequence(const std::vector<uint32_t>& sequence);
  /// Builds a plan from the byte ranges a planning probe recorded
  /// (skipindex::CollectTouchedRanges), via the codec chunk map.
  static FetchPlan FromRanges(const std::vector<skipindex::ByteRange>& ranges,
                              uint32_t chunk_size, uint32_t chunk_count);
};

/// \brief Owner-side planning pass: runs the skip filter's reachability
/// decisions over the skip index of the plaintext `encoded_payload` —
/// exactly the scan the card will perform — and compiles the chunk runs
/// it touches into a FetchPlan for (subject rules, query).
///
/// `chunk_size` is the container chunk geometry the document will be (or
/// was) sealed with; `use_skip` must match the query options the card
/// will run with (a no-skip scan touches every chunk). Computed where
/// plaintext legitimately lives: the publisher at publish/update time,
/// or any holder of the decoded document. The plan leaks nothing the DSP
/// does not already observe — it is precisely the access pattern an
/// unplanned scan reveals trip by trip.
Result<FetchPlan> ComputeFetchPlan(Span encoded_payload, uint32_t chunk_size,
                                   const std::vector<core::AccessRule>& rules,
                                   const xpath::PathExpr* query,
                                   bool use_skip = true);

/// \brief Plan-driven reads over another ChunkProvider.
///
/// Sibling of PrefetchingProvider with the guessing removed: instead of
/// widening a window on observed access patterns, it fetches the plan's
/// runs as one multi-span batch (GetSpans — one round trip however many
/// runs) the first time the card asks for a planned chunk, then serves
/// the session from that buffer. Requests for chunks the plan missed
/// fall through to the inner provider untouched (one ordinary trip each)
/// and are counted as plan misses — the conservative fallback that makes
/// a plan advisory. Planned-but-unread chunks stay in the terminal
/// buffer and never cross the APDU link, so card-side transfer and
/// crypto costs stay byte-identical to the unplanned run.
///
/// Same reentrancy contract as PrefetchingProvider: one provider, one
/// card session, one thread.
class PlannedProvider : public ChunkProvider {
 public:
  /// `chunk_count` bounds the plan against the container geometry (runs
  /// beyond it are clamped at construction — a hostile plan must not
  /// produce unfetchable requests).
  PlannedProvider(ChunkProvider* inner, uint32_t chunk_count, FetchPlan plan);

  uint64_t TotalWireBytes() const override { return inner_->TotalWireBytes(); }
  /// Round trips are whatever the backend performed: the planned
  /// multi-span fetch plus fallback trips for plan misses.
  uint64_t round_trips() const override { return inner_->round_trips(); }

  /// \name Plan statistics
  /// @{
  /// Multi-span planned fetches issued: 1 once the card touched a planned
  /// chunk, else 0.
  uint64_t planned_trips() const { return planned_trips_; }
  /// Card requests served entirely from the planned buffer.
  uint64_t plan_hits() const { return plan_hits_; }
  /// Card requests that fell through to the inner provider.
  uint64_t plan_misses() const { return plan_misses_; }
  /// Chunks pulled by planned fetches (including planned-but-never-read).
  uint64_t chunks_fetched() const { return chunks_fetched_; }
  /// The (clamped, normalized) plan in effect.
  const FetchPlan& plan() const { return plan_; }
  /// @}

 protected:
  Result<std::vector<ChunkData>> FetchChunks(uint32_t first,
                                             uint32_t count) override;

 private:
  // Fetches the whole plan into the buffer on first use; a failed planned
  // fetch is swallowed (the request falls through to the inner provider —
  // the plan is advisory even when the batch path is broken).
  void EnsureFetched();

  ChunkProvider* inner_;
  FetchPlan plan_;
  // Fetched-but-not-yet-consumed planned chunks. Entries are evicted as
  // the card consumes them (scans are forward-only, chunks are never
  // re-requested), so peak terminal RAM is the planned working set.
  std::unordered_map<uint32_t, ChunkData> buf_;

  uint64_t planned_trips_ = 0;
  uint64_t plan_hits_ = 0;
  uint64_t plan_misses_ = 0;
  uint64_t chunks_fetched_ = 0;
};

/// \brief Transparent decorator recording the card-facing chunk request
/// sequence of a session.
///
/// The terminal's learn-on-first-run probe: wrap the session's provider
/// stack in one of these and the recorded sequence — the skip filter's
/// decisions materialized as chunk indices — compiles into a FetchPlan
/// (FetchPlan::FromChunkSequence) for the next identical query.
class RecordingProvider : public ChunkProvider {
 public:
  explicit RecordingProvider(ChunkProvider* inner) : inner_(inner) {}

  uint64_t TotalWireBytes() const override { return inner_->TotalWireBytes(); }
  uint64_t round_trips() const override { return inner_->round_trips(); }

  /// Chunk indices requested so far, in request order.
  const std::vector<uint32_t>& requested() const { return requested_; }

 protected:
  Result<std::vector<ChunkData>> FetchChunks(uint32_t first,
                                             uint32_t count) override {
    for (uint32_t i = 0; i < count; ++i) requested_.push_back(first + i);
    return inner_->GetChunks(first, count);
  }

 private:
  ChunkProvider* inner_;
  std::vector<uint32_t> requested_;
};

}  // namespace csxa::soe

#endif  // CSXA_SOE_PREFETCH_H_
