#ifndef CSXA_SOE_PREFETCH_H_
#define CSXA_SOE_PREFETCH_H_

/// \file prefetch.h
/// \brief Terminal-side fetch scheduling: fetch plans and the one
/// chunk-provider decorator that rides them.
///
/// The card consumes one chunk at a time (its RAM budget), but paying one
/// terminal<->DSP round trip per chunk is exactly the per-message cost the
/// paper calls out as a limiting factor (§2.3). The skip index knows which
/// chunks a query will touch, so the terminal fetches them as a FetchPlan:
/// every planned chunk in one multi-span round trip. Chunks no plan covers
/// (a learning run, a stale or hostile plan) arrive in fixed windows of
/// consecutive chunks.
///
/// Buffered-but-unread chunks stay in the terminal and never cross the
/// APDU link, so card-side transfer and crypto costs are byte-identical
/// whatever the schedule — only the round-trip count (and thus modeled
/// latency) changes.

#include <cstddef>
#include <map>
#include <vector>

#include "core/rule.h"
#include "soe/chunk_source.h"
#include "xpath/ast.h"

namespace csxa::soe {

/// \brief The compiled fetch schedule of one query: the ordered,
/// contiguous chunk runs the scan will touch.
///
/// A plan is ADVISORY, never authoritative: it decides only which chunks
/// the terminal prefetches into its buffer. A wrong or stale plan costs
/// extra round trips (window fetches for the chunks it missed), never
/// correctness — the card verifies and decrypts every chunk it consumes
/// exactly as in an unplanned run, so card transfer/crypto bytes are
/// identical by construction.
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

  /// Builds a plan from an observed per-chunk request sequence (what
  /// PlannedProvider::requested() captured from a live session): the
  /// terminal's learn-on-first-run path.
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

/// \brief Plan-driven reads over another ChunkProvider, with a fixed miss
/// window.
///
/// The first card request for a planned chunk pulls the whole plan as one
/// multi-span batch (GetSpans — one round trip however many runs). Any
/// other request the buffer cannot answer fetches a fixed window of
/// `max_prefetch` consecutive chunks from the requested one, clamped to
/// the container end. Card scans only move forward, so for them a fixed
/// window never takes more trips than an adaptive one capped at the same
/// size. With an empty plan every fetch is a window fetch; with
/// `max_prefetch = 1` that is one round trip per chunk.
///
/// Every card request is recorded (requested()): the sequence is the skip
/// filter's decisions materialized as chunk indices, and compiles into the
/// plan for the next identical query (FetchPlan::FromChunkSequence).
///
/// Reentrancy contract: a PlannedProvider (like every ChunkProvider)
/// belongs to ONE card session on one thread — its buffer and counters
/// are unsynchronized by design. Concurrency lives below, in the shared
/// dsp::Service the provider fetches from; each concurrent session
/// constructs its own provider over that shared backend.
class PlannedProvider : public ChunkProvider {
 public:
  /// `chunk_count` bounds the plan and the window against the container
  /// geometry (the terminal knows it from the public header): a hostile
  /// plan must not produce unfetchable requests. `max_prefetch` 0 is
  /// treated as 1.
  PlannedProvider(ChunkProvider* inner, uint32_t chunk_count,
                  FetchPlan plan = {}, uint32_t max_prefetch = 8);

  uint64_t TotalWireBytes() const override { return inner_->TotalWireBytes(); }
  /// Round trips are whatever the backend performed: the planned
  /// multi-span fetch plus the window fetches. Buffer hits cost none.
  uint64_t round_trips() const override { return inner_->round_trips(); }

  /// \name Fetch statistics
  /// @{
  /// Multi-span planned fetches issued: 1 once the card touched a planned
  /// chunk, else 0.
  uint64_t planned_trips() const { return planned_trips_; }
  /// Window fetches issued for chunks the buffer did not hold.
  uint64_t window_trips() const { return window_trips_; }
  /// Chunks pulled from the backend, including never-read ones.
  uint64_t chunks_fetched() const { return chunks_fetched_; }
  /// The (clamped, normalized) plan in effect.
  const FetchPlan& plan() const { return plan_; }
  /// Chunk indices the card requested so far, in request order.
  const std::vector<uint32_t>& requested() const { return requested_; }
  /// @}

 protected:
  Result<std::vector<ChunkData>> FetchChunks(uint32_t first,
                                             uint32_t count) override;

 private:
  // Fetches the whole plan into the buffer, once. A failed or short
  // planned batch is swallowed: the request falls back to a window fetch,
  // which surfaces any real backend error on its own trip.
  void FetchPlanned();
  // Fetches at least `min_count` chunks from `first`, widened to the
  // window and clamped to the container end.
  Status FetchWindow(uint32_t first, uint32_t min_count);

  ChunkProvider* inner_;
  uint32_t chunk_count_;
  uint32_t max_prefetch_;
  FetchPlan plan_;
  bool plan_fetched_ = false;
  // Fetched-but-not-yet-consumed chunks, by index. The card consumes an
  // entry by moving it out; a window fetch drops everything behind it
  // (scans are forward-only), so terminal RAM stays the planned working
  // set plus one window.
  std::map<uint32_t, ChunkData> buf_;
  std::vector<uint32_t> requested_;

  uint64_t planned_trips_ = 0;
  uint64_t window_trips_ = 0;
  uint64_t chunks_fetched_ = 0;
};

}  // namespace csxa::soe

#endif  // CSXA_SOE_PREFETCH_H_
