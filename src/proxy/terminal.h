#ifndef CSXA_PROXY_TERMINAL_H_
#define CSXA_PROXY_TERMINAL_H_

/// \file terminal.h
/// \brief The user-side terminal proxy (Fig. 3).
///
/// "A proxy allowing the applications to communicate easily with the
/// different elements of the architecture through an XML API independent
/// of the underlying protocols (JDBC, APDU)" (§3). The proxy hosts the
/// user's card (applet), provisions its keys from the PKI registry,
/// drives sessions over the APDU transport, feeds container chunks
/// fetched from the DSP through the batch-first dsp::Service protocol
/// (one OpenDocument trip, windowed prefetching chunk fetches), and
/// reassembles the delivered view for the application.

#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "dsp/service.h"
#include "pki/registry.h"
#include "soe/applet.h"
#include "soe/apdu.h"
#include "soe/prefetch.h"

namespace csxa::proxy {

/// \brief How the terminal schedules chunk fetches from the DSP.
enum class FetchPolicy : uint8_t {
  /// Adaptive prefetch window (soe::PrefetchingProvider): sequential runs
  /// amortize trips, skip jumps collapse the window. The default; with
  /// `max_prefetch = 1` every chunk is its own kGetChunks round trip (the
  /// pre-batching baseline).
  kWindowed,
  /// Skip-index-planned multi-span fetches (soe::PlannedProvider). With
  /// an advisory plan — supplied by the caller or learned from a prior
  /// identical query — the whole needed chunk set arrives in one (or few)
  /// multi-span kGetChunks trips; chunks the plan missed fall through to
  /// ordinary per-chunk trips. Without any plan the query runs windowed
  /// and the terminal records the access pattern as the plan for the
  /// next identical query (same doc, rules version, query, skip mode).
  kPlanned,
};

/// Per-query options exposed to applications.
struct QueryOptions {
  /// XPath query; empty delivers the whole authorized view.
  std::string query;
  /// Exploit the skip index.
  bool use_skip = true;
  /// Enforce the modeled card RAM budget strictly.
  bool strict_ram = false;
  /// Chunk fetch scheduling policy (see FetchPolicy).
  FetchPolicy fetch_policy = FetchPolicy::kWindowed;
  /// kWindowed: upper bound of the adaptive DSP prefetch window, in
  /// chunks; 1 makes every chunk its own round trip.
  uint32_t max_prefetch = 8;
  /// kPlanned: advisory fetch plan to use (e.g. owner-computed via
  /// soe::ComputeFetchPlan). Null consults the terminal's learned-plan
  /// cache. The plan is never authoritative: a wrong plan costs round
  /// trips, not correctness.
  const soe::FetchPlan* plan = nullptr;
  /// kPlanned: cap on chunks per multi-span trip (0 = whole plan in one
  /// request); bounds the terminal-side buffer.
  uint32_t plan_chunks_per_trip = 0;
};

/// What the application receives.
struct QueryResult {
  /// The authorized (sub)document, canonical XML.
  std::string xml;
  /// Card-side session statistics (cost model, skips, RAM, round trips).
  soe::SessionStats card;
  /// Terminal-side accounting. The DSP figures count this query's own
  /// calls (OpenDocument + chunk batches) and the wire bytes of their OK
  /// responses, exact however many sessions share the backend.
  uint64_t dsp_bytes_fetched = 0;
  uint64_t dsp_round_trips = 0;
  uint64_t apdu_round_trips = 0;
  /// \name Fetch-plan accounting (kPlanned sessions)
  /// @{
  /// Policy the session actually ran with.
  FetchPolicy fetch_policy = FetchPolicy::kWindowed;
  /// Contiguous ranges in the plan used (0 when no plan was available).
  uint64_t plan_ranges = 0;
  /// Multi-span planned fetches issued.
  uint64_t plan_trips = 0;
  /// Card requests the plan missed (served by fallback trips).
  uint64_t plan_miss_trips = 0;
  /// This session ran windowed and recorded a plan for the next
  /// identical query.
  bool plan_learned = false;
  /// @}
};

/// \brief One user's terminal with its plugged-in card.
///
/// `dsp` is any Service backend: the in-memory DspServer, a ShardedService
/// fleet, or a CachingClient stacked on either — the terminal only speaks
/// the protocol.
class Terminal {
 public:
  /// `user` is the card holder; the card profile models the hardware.
  Terminal(std::string user, soe::CardProfile profile, dsp::Service* dsp,
           pki::KeyRegistry* registry);

  /// Fetches the user's key grant for `doc_id` from the registry and
  /// installs it in the card (secure channel assumed).
  Status Provision(const std::string& doc_id);

  /// Runs a query as this terminal's user. The XML API of the demo:
  /// applications call this and get XML back, all protocol details hidden.
  Result<QueryResult> Query(const std::string& doc_id,
                            const QueryOptions& options);

  /// The card holder.
  const std::string& user() const { return user_; }
  /// Direct applet access (integration tests).
  soe::CsxaApplet& applet() { return applet_; }
  /// Learned fetch plans currently cached (tests/diagnostics).
  size_t cached_plans() const { return plan_cache_.size(); }

 private:
  /// Learned plans are valid for exactly one (document, rules version,
  /// query, skip mode): a policy update or republish bumps the version
  /// and the next planned query re-learns. Stale entries are dropped
  /// lazily on lookup.
  using PlanKey = std::tuple<std::string, uint64_t, std::string, bool>;

  std::string user_;
  dsp::Service* dsp_;
  pki::KeyRegistry* registry_;
  soe::CsxaApplet applet_;
  std::map<PlanKey, soe::FetchPlan> plan_cache_;
};

}  // namespace csxa::proxy

#endif  // CSXA_PROXY_TERMINAL_H_
