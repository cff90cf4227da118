#include "dsp/async.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace csxa::dsp {

AsyncDispatcher::AsyncDispatcher(Service* backend)
    : AsyncDispatcher(backend, Options()) {}

AsyncDispatcher::AsyncDispatcher(Service* backend, Options options)
    : backend_(backend), options_(options) {
  CSXA_CHECK(backend_ != nullptr);
  if (options_.workers == 0) options_.workers = 1;
  queues_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    queues_.push_back(std::make_unique<Lane>());
  }
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

AsyncDispatcher::~AsyncDispatcher() {
  stopping_.store(true, std::memory_order_release);
  for (auto& lane : queues_) {
    // Acquire the lane lock so a worker blocked between its empty-check
    // and its wait cannot miss the wake-up.
    std::lock_guard lock(lane->mu);
    lane->cv.notify_all();
  }
  for (std::thread& t : workers_) t.join();
}

size_t AsyncDispatcher::LaneFor(const std::string& doc_id) const {
  // One document, one lane: per-document FIFO whichever thread submits.
  return static_cast<size_t>(DocHash(doc_id) % queues_.size());
}

std::future<Result<Response>> AsyncDispatcher::Submit(Request request) {
  Job job;
  job.request = std::move(request);
  std::future<Result<Response>> future = job.promise.get_future();
  Lane& lane = *queues_[LaneFor(job.request.doc_id)];
  {
    std::lock_guard lock(lane.mu);
    lane.jobs.push_back(std::move(job));
  }
  lane.cv.notify_one();
  return future;
}

Result<Response> AsyncDispatcher::Execute(Request request) {
  // Writes keep the worker hand-off: reads are the many small calls the
  // inline path is for, and a loop of inline writes never blocks, which
  // spread perfbench's write latencies two to four times wider run to run.
  if (IsWrite(request.op)) return Submit(std::move(request)).get();
  Lane& lane = *queues_[LaneFor(request.doc_id)];
  std::unique_lock lock(lane.mu);
  if (lane.running || !lane.jobs.empty()) {
    // Busy lane: queue behind it and wait. The caller's own earlier
    // submissions are still queued or running, so per-document FIFO holds.
    lock.unlock();
    return Submit(std::move(request)).get();
  }
  lane.running = true;
  lock.unlock();
  // Caller-runs: the lane is ours until this guard releases it — on every
  // exit, a throwing backend included — and wakes the worker if requests
  // queued meanwhile.
  struct Claim {
    Lane& lane;
    ~Claim() {
      std::unique_lock lock(lane.mu);
      lane.running = false;
      const bool queued = !lane.jobs.empty();
      lock.unlock();
      if (queued) lane.cv.notify_one();
    }
  } claim{lane};
  Result<Response> result = backend_->Execute(std::move(request));
  Charge(lane, result);
  return result;
}

void AsyncDispatcher::WorkerLoop(size_t lane_index) {
  Lane& lane = *queues_[lane_index];
  for (;;) {
    Job job;
    {
      std::unique_lock lock(lane.mu);
      lane.cv.wait(lock, [&] {
        return (!lane.running && !lane.jobs.empty()) ||
               (lane.jobs.empty() && stopping_.load(std::memory_order_acquire));
      });
      if (lane.jobs.empty()) return;  // stopping and drained
      job = std::move(lane.jobs.front());
      lane.jobs.pop_front();
      lane.running = true;
    }
    Result<Response> result = backend_->Execute(std::move(job.request));
    Charge(lane, result);
    {
      // Free the lane before waking the caller, so its next Execute finds
      // the lane idle and runs inline.
      std::lock_guard lock(lane.mu);
      lane.running = false;
    }
    job.promise.set_value(std::move(result));
  }
}

void AsyncDispatcher::Charge(Lane& lane, const Result<Response>& result) {
  // Fixed admission cost plus the response payload at server bandwidth.
  // Errors still cost admission.
  double seconds = options_.per_request_seconds;
  if (result.ok() && options_.server_bytes_per_second > 0) {
    seconds += static_cast<double>(result.value().wire_bytes) /
               options_.server_bytes_per_second;
  }
  lane.busy_ns.fetch_add(static_cast<uint64_t>(std::llround(seconds * 1e9)),
                         std::memory_order_relaxed);
  lane.executed.fetch_add(1, std::memory_order_relaxed);
}

std::vector<double> AsyncDispatcher::lane_busy_seconds() const {
  std::vector<double> out;
  out.reserve(queues_.size());
  for (const auto& lane : queues_) {
    out.push_back(
        static_cast<double>(lane->busy_ns.load(std::memory_order_relaxed)) /
        1e9);
  }
  return out;
}

double AsyncDispatcher::modeled_busy_seconds() const {
  double total = 0;
  for (double s : lane_busy_seconds()) total += s;
  return total;
}

double AsyncDispatcher::modeled_makespan_seconds() const {
  double max = 0;
  for (double s : lane_busy_seconds()) max = std::max(max, s);
  return max;
}

uint64_t AsyncDispatcher::executed() const {
  uint64_t n = 0;
  for (const auto& lane : queues_) {
    n += lane->executed.load(std::memory_order_relaxed);
  }
  return n;
}

}  // namespace csxa::dsp
