#include "soe/prefetch.h"

#include <algorithm>

#include "skipindex/codec.h"
#include "skipindex/filter.h"

namespace csxa::soe {

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
                                 FetchPlan plan, uint32_t max_prefetch)
    : inner_(inner),
      chunk_count_(chunk_count),
      max_prefetch_(std::max<uint32_t>(max_prefetch, 1)),
      plan_(std::move(plan)) {
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

void PlannedProvider::FetchPlanned() {
  plan_fetched_ = true;
  ++planned_trips_;
  Result<std::vector<ChunkData>> fetched = inner_->GetSpans(plan_.runs);
  if (!fetched.ok() || fetched.value().size() != plan_.total_chunks()) return;
  chunks_fetched_ += fetched.value().size();
  size_t at = 0;
  for (const skipindex::ChunkRun& r : plan_.runs) {
    for (uint32_t i = 0; i < r.count; ++i) {
      buf_.insert_or_assign(r.first + i, std::move(fetched.value()[at++]));
    }
  }
}

Status PlannedProvider::FetchWindow(uint32_t first, uint32_t min_count) {
  uint64_t end = std::min<uint64_t>(
      uint64_t{first} + std::max(max_prefetch_, min_count), chunk_count_);
  // Out-of-range requests pass through at their own size, so the backend's
  // error is the answer rather than a clamped wrong one.
  end = std::max<uint64_t>(end, uint64_t{first} + min_count);
  ++window_trips_;
  CSXA_ASSIGN_OR_RETURN(
      std::vector<ChunkData> fetched,
      inner_->GetChunks(first, static_cast<uint32_t>(end - first)));
  chunks_fetched_ += fetched.size();
  buf_.erase(buf_.begin(), buf_.lower_bound(first));
  for (size_t i = 0; i < fetched.size(); ++i) {
    buf_.insert_or_assign(first + static_cast<uint32_t>(i),
                          std::move(fetched[i]));
  }
  return Status::OK();
}

Result<std::vector<ChunkData>> PlannedProvider::FetchChunks(uint32_t first,
                                                            uint32_t count) {
  std::vector<ChunkData> out;
  out.reserve(count);
  for (uint32_t c = first; c < first + count; ++c) {
    requested_.push_back(c);
    auto it = buf_.find(c);
    if (it == buf_.end() && !plan_fetched_ && plan_.Covers(c)) {
      FetchPlanned();
      it = buf_.find(c);
    }
    if (it == buf_.end()) {
      CSXA_RETURN_IF_ERROR(FetchWindow(c, first + count - c));
      it = buf_.find(c);
      if (it == buf_.end()) {
        return Status::Internal("backend returned short chunk batch");
      }
    }
    out.push_back(std::move(it->second));
    buf_.erase(it);
  }
  return out;
}

}  // namespace csxa::soe
