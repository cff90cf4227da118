#include "dsp/retrying.h"

#include <algorithm>

#include "common/logging.h"

namespace csxa::dsp {

namespace {
// Modeled backoff before the first retry, and its ceiling; it doubles per
// retry in between.
constexpr double kInitialBackoffSeconds = 0.005;
constexpr double kMaxBackoffSeconds = 0.25;
}  // namespace

RetryingClient::RetryingClient(Service* backend, RetryOptions options)
    : backend_(backend), options_(options) {
  CSXA_CHECK(backend_ != nullptr);
  if (options_.max_attempts < 1) options_.max_attempts = 1;
}

void RetryingClient::set_on_backoff(BackoffHook hook) {
  std::lock_guard lock(hook_mu_);
  on_backoff_ = std::move(hook);
}

Result<Response> RetryingClient::Execute(Request request) {
  const Op op = request.op;
  double backoff = kInitialBackoffSeconds;
  Result<Response> result = Status::IoError("unreachable");
  for (int attempt = 1;; ++attempt) {
    Request attempt_req = request;
    result = backend_->Execute(std::move(attempt_req));
    if (result.ok()) return result;
    if (op == Op::kRemove && attempt > 1 &&
        result.status().code() == StatusCode::kNotFound) {
      // The earlier attempt whose response was lost DID apply the remove;
      // this NotFound is our own success echoing back.
      remove_races_absorbed_.fetch_add(1, std::memory_order_relaxed);
      return Response{};
    }
    if (result.status().code() != StatusCode::kIoError) {
      return result;  // authoritative answer, not a transport fault
    }
    if (attempt >= options_.max_attempts) break;
    retries_.fetch_add(1, std::memory_order_relaxed);
    modeled_backoff_seconds_.fetch_add(backoff, std::memory_order_relaxed);
    BackoffHook hook;
    {
      std::lock_guard lock(hook_mu_);
      hook = on_backoff_;
    }
    if (hook) hook(attempt, backoff);
    backoff = std::min(backoff * 2, kMaxBackoffSeconds);
  }
  exhausted_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

}  // namespace csxa::dsp
