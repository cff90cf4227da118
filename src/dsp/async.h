#ifndef CSXA_DSP_ASYNC_H_
#define CSXA_DSP_ASYNC_H_

/// \file async.h
/// \brief Asynchronous batched execution behind the Service protocol.
///
/// A real DSP front-end serves many tenants at once; executing every
/// request inline on the caller's thread means one terminal's slow
/// full-container fetch head-of-line-blocks another tenant's tiny
/// revalidation. AsyncDispatcher puts a fixed thread pool between the
/// protocol and a backend Service:
///
///  - Submit(Request) enqueues and returns a future<Result<Response>>;
///    the caller overlaps its own work (or other submissions) with the
///    server-side execution.
///  - Requests are routed to per-worker queues by DocHash(doc_id) — the
///    hash ShardedService places documents with — so all operations on
///    one document execute in submission order (per-document FIFO), while
///    different documents never queue behind each other unless they
///    happen to share a lane.
///  - Execute() of a read is caller-runs: when the document's lane is idle
///    (no request executing, none queued) the calling thread claims the
///    lane and runs the backend itself, saving the two cross-thread
///    wake-ups of a hand-off to a worker it would only block on; otherwise
///    it queues behind the lane like Submit() and waits. A write
///    (IsWrite()) always goes through the worker. Either way the
///    dispatcher is itself a Service, so the decorator stack
///    (CachingClient, ShardedService) composes around it unchanged.
///
/// The dispatcher also keeps the modeled server-side clock: each executed
/// request charges its lane a fixed 200 µs admission cost plus its
/// response's wire_bytes at a modeled 100 MB/s server bandwidth. The modeled
/// makespan (busiest lane) is what the load harness divides by to get
/// aggregate throughput — on a machine with few real cores, the modeled
/// clock is what scales with worker count, exactly like the modeled card
/// costs elsewhere in this repo.
///
/// Threading: Submit() and Execute() are safe from any thread. A lane runs
/// at most one request at a time, on its worker or on an Execute() caller
/// that found it idle, so per-document FIFO and the concurrency bound
/// (one backend call per lane) hold whichever thread executes. Submit()
/// always hands off to the worker: a caller may submit while holding a
/// lock the backend call takes. The backend must be thread-safe
/// (DspServer, ShardedService and CachingClient are); lanes call it
/// concurrently. Destruction drains every queued request before joining,
/// so no future is ever abandoned.

#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dsp/service.h"

namespace csxa::dsp {

/// \brief Thread-pool Service decorator with per-shard work queues and a
/// future-returning submission API.
class AsyncDispatcher : public Service {
 public:
  struct Options {
    /// Worker threads == work queues. 1 reproduces the synchronous,
    /// single-threaded server (the load harness's baseline).
    size_t workers = 4;
  };

  /// `backend` must be thread-safe and outlive the dispatcher.
  AsyncDispatcher(Service* backend, Options options);
  explicit AsyncDispatcher(Service* backend);  // default Options
  ~AsyncDispatcher() override;

  /// Enqueues `request` on its document's lane and returns immediately;
  /// the lane's worker executes it.
  std::future<Result<Response>> Submit(Request request);

  /// Synchronous execution that keeps the dispatcher a drop-in Service.
  /// A read on an idle lane runs on the calling thread; a write, or any
  /// request on a busy lane, queues behind the lane's earlier requests and
  /// the caller waits. Either way the lane's modeled clock is charged alike.
  Result<Response> Execute(Request request) override;
  ServiceStats stats() const override { return backend_->stats(); }

  size_t worker_count() const { return queues_.size(); }
  /// Lane a document's requests execute on: DocHash(doc_id) modulo the
  /// lane count, so it equals ShardedService::ShardFor for equal counts.
  size_t LaneFor(const std::string& doc_id) const;

  /// \name Modeled server-side clock
  /// @{
  /// Modeled busy seconds accumulated per worker lane.
  std::vector<double> lane_busy_seconds() const;
  /// Sum over lanes: total modeled server work.
  double modeled_busy_seconds() const;
  /// Busiest lane: the modeled wall-clock the fleet needed. Throughput =
  /// operations / makespan.
  double modeled_makespan_seconds() const;
  /// Requests executed so far.
  uint64_t executed() const;
  /// @}

 private:
  struct Job {
    Request request;
    std::promise<Result<Response>> promise;
  };
  struct Lane {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Job> jobs;
    // A request of this lane is inside the backend, on the worker or on an
    // Execute() caller. Guarded by `mu`.
    bool running = false;
    // Modeled busy time, in nanoseconds (atomic: written by whichever
    // thread runs the lane's request, read by reporting threads).
    std::atomic<uint64_t> busy_ns{0};
    std::atomic<uint64_t> executed{0};
  };

  void WorkerLoop(size_t lane_index);
  /// Charges `lane`'s modeled clock for one executed request.
  void Charge(Lane& lane, const Result<Response>& result);

  Service* backend_;
  std::vector<std::unique_ptr<Lane>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopping_{false};
};

}  // namespace csxa::dsp

#endif  // CSXA_DSP_ASYNC_H_
