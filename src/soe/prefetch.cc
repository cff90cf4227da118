#include "soe/prefetch.h"

#include <algorithm>

#include "skipindex/filter.h"

namespace csxa::soe {

namespace {

// Index of the run of the sorted, disjoint `runs` holding `chunk`, or -1.
int64_t RunHolding(const std::vector<skipindex::ChunkRun>& runs,
                   uint32_t chunk) {
  // First run starting after `chunk`; the candidate is its predecessor.
  auto it = std::upper_bound(
      runs.begin(), runs.end(), chunk,
      [](uint32_t c, const skipindex::ChunkRun& r) { return c < r.first; });
  if (it == runs.begin()) return -1;
  --it;
  if (chunk - it->first >= it->count) return -1;
  return it - runs.begin();
}

}  // namespace

// --- FetchPlan -------------------------------------------------------------

bool FetchPlan::Covers(uint32_t chunk) const {
  return RunHolding(runs, chunk) >= 0;
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
  uint64_t offset = 0;
  for (const skipindex::ChunkRun& r : plan_.runs) {
    if (r.first >= chunk_count) continue;
    uint32_t count = std::min<uint64_t>(r.count, chunk_count - r.first);
    if (count == 0) continue;
    clamped.push_back(skipindex::ChunkRun{r.first, count});
    run_offsets_.push_back(offset);
    offset += count;
  }
  plan_.runs = std::move(clamped);
  // A scan requests each chunk at most once: one allocation covers it.
  requested_.reserve(chunk_count);
}

int64_t PlannedProvider::PlanPosition(uint32_t chunk) const {
  const int64_t run = RunHolding(plan_.runs, chunk);
  if (run < 0) return -1;
  const auto r = static_cast<size_t>(run);
  return static_cast<int64_t>(run_offsets_[r] +
                              (chunk - plan_.runs[r].first));
}

bool PlannedProvider::TakeBuffered(uint32_t chunk,
                                   std::vector<ChunkData>* out) {
  const bool in_window = chunk >= window_first_ &&
                         chunk - window_first_ < window_.size() &&
                         window_live_[chunk - window_first_];
  const int64_t at = planned_.empty() || chunk < planned_floor_
                         ? -1
                         : PlanPosition(chunk);
  const bool in_plan = at >= 0 && planned_live_[static_cast<size_t>(at)];
  if (!in_window && !in_plan) return false;
  // The window's copy is the newer one; either way no buffer answers for
  // this chunk again.
  if (in_window) {
    out->push_back(std::move(window_[chunk - window_first_]));
    window_live_[chunk - window_first_] = false;
  } else {
    out->push_back(std::move(planned_[static_cast<size_t>(at)]));
  }
  if (in_plan) planned_live_[static_cast<size_t>(at)] = false;
  return true;
}

void PlannedProvider::FetchPlanned() {
  plan_fetched_ = true;
  ++planned_trips_;
  if (!inner_->Fetch(plan_.runs, &planned_).ok()) return;
  chunks_fetched_ += planned_.size();
  planned_live_.assign(planned_.size(), true);
}

Status PlannedProvider::FetchWindow(uint32_t first, uint32_t min_count) {
  uint64_t end = std::min<uint64_t>(
      uint64_t{first} + std::max(max_prefetch_, min_count), chunk_count_);
  // Out-of-range requests pass through at their own size, so the backend's
  // error is the answer rather than a clamped wrong one.
  end = std::max<uint64_t>(end, uint64_t{first} + min_count);
  ++window_trips_;
  const skipindex::ChunkRun window{first, static_cast<uint32_t>(end - first)};
  // Appended behind the old window, which a failed fetch leaves as it was.
  const auto old = static_cast<std::ptrdiff_t>(window_.size());
  CSXA_RETURN_IF_ERROR(inner_->Fetch(std::span(&window, 1), &window_));
  window_.erase(window_.begin(), window_.begin() + old);
  chunks_fetched_ += window_.size();
  window_first_ = first;
  window_live_.assign(window_.size(), true);
  if (!planned_.empty()) planned_floor_ = std::max(planned_floor_, first);
  return Status::OK();
}

Status PlannedProvider::FetchRuns(std::span<const skipindex::ChunkRun> runs,
                                  std::vector<ChunkData>* out) {
  for (const skipindex::ChunkRun& run : runs) {
    const uint32_t end = run.first + run.count;
    for (uint32_t c = run.first; c < end; ++c) {
      requested_.push_back(c);
      if (TakeBuffered(c, out)) continue;
      if (!plan_fetched_ && plan_.Covers(c)) {
        FetchPlanned();
        if (TakeBuffered(c, out)) continue;
      }
      // An exact window reply starts at `c`, so it holds this chunk.
      CSXA_RETURN_IF_ERROR(FetchWindow(c, end - c));
      if (!TakeBuffered(c, out)) {
        return Status::Internal("window reply lacks its first chunk");
      }
    }
  }
  return Status::OK();
}

}  // namespace csxa::soe
