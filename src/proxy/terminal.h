#ifndef CSXA_PROXY_TERMINAL_H_
#define CSXA_PROXY_TERMINAL_H_

/// \file terminal.h
/// \brief The user-side terminal proxy (Fig. 3).
///
/// "A proxy allowing the applications to communicate easily with the
/// different elements of the architecture through an XML API independent
/// of the underlying protocols (JDBC, APDU)" (§3). The proxy hosts the
/// user's card (applet), provisions its keys from the PKI registry,
/// drives sessions through the applet's APDU command set, forwards the
/// card only its holder's record of the rule envelope, feeds container
/// chunks fetched from the DSP through the batch-first dsp::Service
/// protocol (one OpenDocument trip, then chunk fetches that ride a fetch
/// plan — learned on a query's first run — or a fixed miss window), and
/// reassembles the delivered view for the application.

#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "dsp/service.h"
#include "pki/registry.h"
#include "soe/applet.h"
#include "soe/prefetch.h"

namespace csxa::proxy {

/// Per-query options exposed to applications.
struct QueryOptions {
  /// XPath query; empty delivers the whole authorized view.
  std::string query;
  /// Exploit the skip index.
  bool use_skip = true;
  /// Chunks per miss-window fetch (chunks no plan covers); 1 makes every
  /// such chunk its own round trip.
  uint32_t max_prefetch = 8;
  /// Advisory fetch plan to use (e.g. owner-computed via
  /// soe::ComputeFetchPlan). Null consults the terminal's learned-plan
  /// cache, and on a miss runs on the window and learns the plan. The
  /// plan is never authoritative: a wrong plan costs round trips, not
  /// correctness.
  const soe::FetchPlan* plan = nullptr;
};

/// What the application receives.
struct QueryResult {
  /// The authorized (sub)document, canonical XML.
  std::string xml;
  /// Card-side session statistics (cost model, skips, RAM, round trips).
  soe::SessionStats card;
  /// Terminal-side accounting. The DSP figures count this query's own
  /// round trips (one OpenDocument + the chunk provider's batches) and the
  /// wire bytes of their OK responses, exact however many sessions share
  /// the backend.
  uint64_t dsp_bytes_fetched = 0;
  uint64_t dsp_round_trips = 0;
  uint64_t apdu_round_trips = 0;
  /// \name Fetch-plan accounting
  /// @{
  /// Contiguous ranges in the plan used, or in the plan this session
  /// learned.
  uint64_t plan_ranges = 0;
  /// Multi-span planned fetches issued (0 or 1).
  uint64_t plan_trips = 0;
  /// Miss-window fetches for chunks the plan did not cover.
  uint64_t window_trips = 0;
  /// This session had no plan, ran on the miss window and recorded the
  /// plan for the next identical query.
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
  /// and the next query re-learns. Stale entries are dropped lazily on
  /// lookup.
  using PlanKey = std::tuple<std::string, uint64_t, std::string, bool>;

  std::string user_;
  dsp::Service* dsp_;
  pki::KeyRegistry* registry_;
  soe::CsxaApplet applet_;
  // The envelope header and the holder's record, cut out per query into
  // one reused buffer.
  Bytes rule_message_;
  std::map<PlanKey, soe::FetchPlan> plan_cache_;
};

}  // namespace csxa::proxy

#endif  // CSXA_PROXY_TERMINAL_H_
