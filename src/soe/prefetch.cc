#include "soe/prefetch.h"

#include <algorithm>

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

Result<FetchPlan> ComputeFetchPlan(Span encoded_payload, uint32_t chunk_size,
                                   const std::vector<core::AccessRule>& rules,
                                   const xpath::PathExpr* query,
                                   bool use_skip) {
  CSXA_ASSIGN_OR_RETURN(
      std::vector<uint32_t> chunks,
      skipindex::CollectTouchedChunks(encoded_payload, chunk_size, rules,
                                      query, use_skip));
  return FetchPlan::FromChunkSequence(chunks);
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
  std::vector<ChunkData> fetched;
  if (!inner_->Fetch(plan_.runs, &fetched).ok()) return;
  chunks_fetched_ += fetched.size();
  size_t at = 0;
  for (const skipindex::ChunkRun& r : plan_.runs) {
    for (uint32_t i = 0; i < r.count; ++i) {
      buf_.insert_or_assign(r.first + i, std::move(fetched[at++]));
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
  const skipindex::ChunkRun window{first, static_cast<uint32_t>(end - first)};
  std::vector<ChunkData> fetched;
  CSXA_RETURN_IF_ERROR(inner_->Fetch(std::span(&window, 1), &fetched));
  chunks_fetched_ += fetched.size();
  buf_.erase(buf_.begin(), buf_.lower_bound(first));
  for (size_t i = 0; i < fetched.size(); ++i) {
    buf_.insert_or_assign(first + static_cast<uint32_t>(i),
                          std::move(fetched[i]));
  }
  return Status::OK();
}

Status PlannedProvider::FetchRuns(std::span<const skipindex::ChunkRun> runs,
                                  std::vector<ChunkData>* out) {
  for (const skipindex::ChunkRun& run : runs) {
    const uint32_t end = run.first + run.count;
    for (uint32_t c = run.first; c < end; ++c) {
      requested_.push_back(c);
      auto it = buf_.find(c);
      if (it == buf_.end() && !plan_fetched_ && plan_.Covers(c)) {
        FetchPlanned();
        it = buf_.find(c);
      }
      if (it == buf_.end()) {
        // An exact window reply starts at `c`, so it fills this entry.
        CSXA_RETURN_IF_ERROR(FetchWindow(c, end - c));
        it = buf_.find(c);
      }
      out->push_back(std::move(it->second));
      buf_.erase(it);
    }
  }
  return Status::OK();
}

}  // namespace csxa::soe
