#ifndef CSXA_DSP_RETRYING_H_
#define CSXA_DSP_RETRYING_H_

/// \file retrying.h
/// \brief Terminal-side retry decorator: timeouts + bounded exponential
/// backoff over idempotent operations.
///
/// The terminal end of the fault story. A transport failure (kIoError —
/// crash, partition, lost response) is transient by definition in this
/// stack: the heartbeat/failover machinery below (replicated.h) reroutes
/// around the fault, so a retried request usually lands on a healthy
/// replica. RetryingClient turns those transient errors into latency:
///
///  - only kIoError is retried — authoritative rejections (NotFound,
///    PermissionDenied, InvalidArgument) are final answers, and retrying
///    them would just hammer a healthy server;
///  - every op retries, writes included. In this protocol writes are safe
///    to retry (at-least-once): versions are monotone, republishes
///    overwrite, and a kRemove retry answered NotFound just means the
///    first, timed-out attempt actually applied — that is translated back
///    into success;
///  - backoff starts at 5 ms and doubles per retry up to 250 ms, on the
///    *modeled* clock: no real sleeps, the accumulated backoff is
///    reported in seconds and the `on_backoff` hook gives the embedding
///    harness a place to advance the world (the load harness pumps
///    HeartbeatTick() there, so a retry loop and failure detection make
///    progress together, exactly as wall-clock time would interleave
///    them).
///
/// Threading: safe for concurrent Execute() from any number of threads;
/// counters are atomics and the hook is copied under a mutex per use.

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>

#include "dsp/service.h"

namespace csxa::dsp {

/// \brief Retry policy.
struct RetryOptions {
  /// Total attempts including the first (1 disables retries).
  int max_attempts = 4;
};

/// \brief Service decorator retrying transient (kIoError) failures.
class RetryingClient : public Service {
 public:
  /// Called before each retry with the attempt number just failed and the
  /// modeled backoff being "slept". The load harness advances heartbeats
  /// here so failover happens *during* a retry loop.
  using BackoffHook = std::function<void(int attempt, double backoff_seconds)>;

  /// `backend` must outlive the client.
  RetryingClient(Service* backend, RetryOptions options);
  explicit RetryingClient(Service* backend)
      : RetryingClient(backend, RetryOptions{}) {}

  Result<Response> Execute(Request request) override;
  ServiceStats stats() const override { return backend_->stats(); }

  /// Installs the backoff hook (pass {} to clear).
  void set_on_backoff(BackoffHook hook);

  /// \name Retry statistics
  /// @{
  /// Attempts beyond the first.
  uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }
  /// Operations that exhausted the attempt budget and failed.
  uint64_t exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }
  /// kRemove retries answered NotFound and translated to success.
  uint64_t remove_races_absorbed() const {
    return remove_races_absorbed_.load(std::memory_order_relaxed);
  }
  /// Total modeled backoff "slept" across all operations.
  double modeled_backoff_seconds() const {
    return modeled_backoff_seconds_.load(std::memory_order_relaxed);
  }
  /// @}

 private:
  Service* backend_;
  RetryOptions options_;
  std::mutex hook_mu_;  // guards on_backoff_
  BackoffHook on_backoff_;
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> exhausted_{0};
  std::atomic<uint64_t> remove_races_absorbed_{0};
  std::atomic<double> modeled_backoff_seconds_{0};
};

}  // namespace csxa::dsp

#endif  // CSXA_DSP_RETRYING_H_
