#include "dsp/caching.h"

#include <mutex>

namespace csxa::dsp {

Result<Response> CachingClient::Execute(Request request) {
  // Callers that manage their own revalidation bypass the cache.
  if (request.op != Op::kOpenDocument || request.known_rules_version != 0) {
    const Op op = request.op;
    const std::string doc_id = request.doc_id;
    Result<Response> result = backend_->Execute(std::move(request));
    if (IsWrite(op)) {
      std::unique_lock lock(mu_);
      cache_.erase(doc_id);
    }
    return result;
  }

  const std::string doc_id = request.doc_id;
  // Shared-lock fast path: snapshot the cached triple, then release the
  // lock before the backend round trip so other sessions keep hitting.
  CacheEntry snapshot;
  bool cached = false;
  {
    std::shared_lock lock(mu_);
    auto it = cache_.find(doc_id);
    if (it != cache_.end()) {
      snapshot = it->second;
      cached = true;
    }
  }
  if (cached) request.known_rules_version = snapshot.rules_version;

  Result<Response> result = backend_->Execute(std::move(request));
  if (!result.ok()) {
    if (cached && result.status().code() == StatusCode::kNotFound) {
      // The cached document vanished server-side: drop the entry, or a
      // later republish under the same id could revalidate against bodies
      // from the deleted incarnation. Erase only the version we read, so
      // a racing fill of a newer incarnation is not destroyed.
      std::unique_lock lock(mu_);
      auto it = cache_.find(doc_id);
      if (it != cache_.end() &&
          it->second.rules_version == snapshot.rules_version) {
        cache_.erase(it);
      }
    }
    return result;
  }

  Response resp = std::move(result).value();
  if (resp.not_modified && cached) {
    // Policy unchanged *right now* (the backend just confirmed the cached
    // version is current): reconstitute the full response locally.
    hits_.fetch_add(1, std::memory_order_relaxed);
    resp.not_modified = false;
    resp.header = snapshot.header;
    resp.sealed_rules = snapshot.sealed_rules;
    resp.rules_version = snapshot.rules_version;
    return resp;
  }

  if (cached) {
    invalidations_.fetch_add(1, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    // Fill — but never let an older racing response clobber a newer
    // entry: server versions are monotone, the cache must be too.
    std::unique_lock lock(mu_);
    auto it = cache_.find(doc_id);
    if (it == cache_.end() || it->second.rules_version < resp.rules_version) {
      cache_[doc_id] =
          CacheEntry{resp.header, resp.sealed_rules, resp.rules_version};
    }
  }
  return resp;
}

void CachingClient::Invalidate(const std::string& doc_id,
                               uint64_t rules_version) {
  std::unique_lock lock(mu_);
  auto it = cache_.find(doc_id);
  if (it == cache_.end()) return;
  // Keep entries already at (or past) the notified version: the
  // notification raced a fill of the very update it announces.
  if (rules_version != 0 && it->second.rules_version >= rules_version) return;
  cache_.erase(it);
  fanout_invalidations_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace csxa::dsp
