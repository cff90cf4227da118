#include "soe/prefetch.h"

#include <algorithm>

#include "skipindex/codec.h"
#include "skipindex/filter.h"

namespace csxa::soe {

Result<std::vector<ChunkData>> PrefetchingProvider::FetchChunks(
    uint32_t first, uint32_t count) {
  if (count == 0) return std::vector<ChunkData>{};

  // Entirely inside the buffered window: no backend round trip.
  if (!buf_.empty() && first >= buf_first_ &&
      first + count <= buf_first_ + buf_.size()) {
    ++window_hits_;
    std::vector<ChunkData> out(buf_.begin() + (first - buf_first_),
                               buf_.begin() + (first - buf_first_) + count);
    return out;
  }

  // Window policy: sequential consumption widens, a jump (skip) collapses.
  if (first == next_expected_) {
    window_ = std::min(window_ * 2, options_.max_window);
  } else {
    window_ = 1;
  }

  uint32_t n = std::max(count, window_);
  if (first < chunk_count_) {
    n = std::min<uint64_t>(n, static_cast<uint64_t>(chunk_count_) - first);
  }
  n = std::max(n, count);  // out-of-range requests pass through untouched

  CSXA_ASSIGN_OR_RETURN(std::vector<ChunkData> fetched,
                        inner_->GetChunks(first, n));
  ++fetches_;
  chunks_fetched_ += fetched.size();
  if (fetched.size() < count) {
    return Status::Internal("backend returned short chunk batch");
  }
  buf_ = std::move(fetched);
  buf_first_ = first;
  next_expected_ = first + n;

  std::vector<ChunkData> out(buf_.begin(), buf_.begin() + count);
  return out;
}

// --- FetchPlan -------------------------------------------------------------

bool FetchPlan::Covers(uint32_t chunk) const {
  // First run starting after `chunk`; the candidate is its predecessor.
  auto it = std::upper_bound(
      runs.begin(), runs.end(), chunk,
      [](uint32_t c, const skipindex::ChunkRun& r) { return c < r.first; });
  if (it == runs.begin()) return false;
  --it;
  return chunk - it->first < it->count;
}

void FetchPlan::Normalize() {
  std::sort(runs.begin(), runs.end(),
            [](const skipindex::ChunkRun& a, const skipindex::ChunkRun& b) {
              return a.first < b.first || (a.first == b.first && a.count < b.count);
            });
  std::vector<skipindex::ChunkRun> merged;
  for (const skipindex::ChunkRun& r : runs) {
    if (r.count == 0) continue;
    if (!merged.empty() && r.first <= merged.back().first + merged.back().count) {
      uint32_t end = std::max(merged.back().first + merged.back().count,
                              r.first + r.count);
      merged.back().count = end - merged.back().first;
    } else {
      merged.push_back(r);
    }
  }
  runs = std::move(merged);
}

FetchPlan FetchPlan::FromChunkSequence(const std::vector<uint32_t>& sequence) {
  FetchPlan plan;
  plan.runs.reserve(sequence.size());
  for (uint32_t c : sequence) plan.runs.push_back(skipindex::ChunkRun{c, 1});
  plan.Normalize();
  return plan;
}

FetchPlan FetchPlan::FromRanges(const std::vector<skipindex::ByteRange>& ranges,
                                uint32_t chunk_size, uint32_t chunk_count) {
  FetchPlan plan;
  plan.runs = skipindex::ChunkMap(chunk_size, chunk_count).Runs(ranges);
  return plan;
}

Result<FetchPlan> ComputeFetchPlan(Span encoded_payload, uint32_t chunk_size,
                                   const std::vector<core::AccessRule>& rules,
                                   const xpath::PathExpr* query,
                                   bool use_skip) {
  if (chunk_size == 0) {
    return Status::InvalidArgument("fetch plan needs a non-zero chunk size");
  }
  CSXA_ASSIGN_OR_RETURN(
      std::vector<skipindex::ByteRange> ranges,
      skipindex::CollectTouchedRanges(encoded_payload, rules, query, use_skip));
  uint64_t payload = encoded_payload.size();
  uint32_t chunk_count =
      static_cast<uint32_t>((payload + chunk_size - 1) / chunk_size);
  return FetchPlan::FromRanges(ranges, chunk_size, chunk_count);
}

// --- PlannedProvider -------------------------------------------------------

PlannedProvider::PlannedProvider(ChunkProvider* inner, uint32_t chunk_count,
                                 FetchPlan plan)
    : inner_(inner), plan_(std::move(plan)) {
  plan_.Normalize();
  // Clamp to the container geometry: a plan must never make the backend
  // serve chunks that do not exist.
  std::vector<skipindex::ChunkRun> clamped;
  for (const skipindex::ChunkRun& r : plan_.runs) {
    if (r.first >= chunk_count) continue;
    uint32_t count = std::min<uint64_t>(r.count, chunk_count - r.first);
    if (count > 0) clamped.push_back(skipindex::ChunkRun{r.first, count});
  }
  plan_.runs = std::move(clamped);
}

void PlannedProvider::EnsureFetched() {
  if (planned_trips_ > 0) return;
  ++planned_trips_;
  const uint64_t expect = plan_.total_chunks();
  Result<std::vector<ChunkData>> fetched = inner_->GetSpans(plan_.runs);
  if (!fetched.ok() || fetched.value().size() != expect) {
    // Advisory contract: a failed or short planned batch leaves the
    // buffer unpopulated and the request falls through to the inner
    // provider, which surfaces any real backend error on its own trip.
    return;
  }
  chunks_fetched_ += fetched.value().size();
  size_t at = 0;
  for (const skipindex::ChunkRun& r : plan_.runs) {
    for (uint32_t i = 0; i < r.count; ++i) {
      buf_[r.first + i] = std::move(fetched.value()[at++]);
    }
  }
}

Result<std::vector<ChunkData>> PlannedProvider::FetchChunks(uint32_t first,
                                                            uint32_t count) {
  if (count == 0) return std::vector<ChunkData>{};

  // Pull in the plan the first time the request touches it, then serve
  // from the buffer if the whole request is covered.
  bool covered = true;
  for (uint32_t c = first; c < first + count; ++c) {
    if (buf_.count(c) > 0) continue;
    if (!plan_.Covers(c)) {
      covered = false;
      continue;
    }
    EnsureFetched();
    if (buf_.count(c) == 0) covered = false;
  }
  if (!covered) {
    // Conservative fallback: the plan missed (or the planned batch
    // failed) — the inner provider serves the request exactly as an
    // unplanned run would, on its own round trip.
    ++plan_misses_;
    return inner_->GetChunks(first, count);
  }
  ++plan_hits_;
  std::vector<ChunkData> out;
  out.reserve(count);
  for (uint32_t c = first; c < first + count; ++c) {
    auto it = buf_.find(c);
    out.push_back(std::move(it->second));
    buf_.erase(it);
  }
  return out;
}

}  // namespace csxa::soe
