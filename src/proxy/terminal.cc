#include "proxy/terminal.h"

#include <utility>

#include "soe/prefetch.h"

namespace csxa::proxy {

using soe::ApduCommand;
using soe::ApduResponse;
using soe::Ins;

Terminal::Terminal(std::string user, soe::CardProfile profile,
                   dsp::Service* dsp, pki::KeyRegistry* registry)
    : user_(std::move(user)), dsp_(dsp), registry_(registry), applet_(profile) {}

Status Terminal::Provision(const std::string& doc_id) {
  CSXA_ASSIGN_OR_RETURN(crypto::SymmetricKey key,
                        registry_->Fetch(doc_id, user_));
  applet_.InstallKey(doc_id, key);
  return Status::OK();
}

namespace {
// Maps an applet status word to a Status for the application layer.
Status FromSw(uint16_t sw, const std::string& what) {
  switch (sw) {
    case soe::kSwSecurityStatus:
      return Status::IntegrityError(what + ": card security status");
    case soe::kSwNotFound:
      return Status::NotFound(what + ": card reports not found");
    case soe::kSwConditionsNotSatisfied:
      return Status::InvalidArgument(what + ": conditions not satisfied");
    case soe::kSwWrongData:
      return Status::InvalidArgument(what + ": wrong data");
    default:
      return Status::Internal(what + ": card error " + std::to_string(sw));
  }
}

}  // namespace

Result<QueryResult> Terminal::Query(const std::string& doc_id,
                                    const QueryOptions& options) {
  // One OpenDocument round trip fetches header + sealed rules + rules
  // version together (three separate calls before the batch protocol).
  CSXA_ASSIGN_OR_RETURN(dsp::Response open, dsp_->OpenDocument(doc_id));

  // The chunk supply the card pulls from during the session: the
  // session's Service provider, which counts its own trips and bytes,
  // under the plan-riding provider. The plan is the caller's, else the one
  // learned for this exact query, else none — the session then runs on
  // the miss window and learns it.
  ByteReader header_reader(open.header);
  CSXA_ASSIGN_OR_RETURN(crypto::ContainerHeader parsed_header,
                        crypto::ContainerHeader::DecodeFrom(&header_reader));
  dsp::ServiceChunkProvider chunk_provider(dsp_, doc_id);

  const PlanKey plan_key{doc_id, open.rules_version, options.query,
                         options.use_skip};
  const soe::FetchPlan* plan = options.plan;
  if (plan == nullptr) {
    auto it = plan_cache_.find(plan_key);
    if (it != plan_cache_.end()) {
      plan = &it->second;
    } else {
      // Drop plans learned under older rules versions of this document
      // — they can never match again.
      auto lo = plan_cache_.lower_bound(PlanKey{doc_id, 0, "", false});
      while (lo != plan_cache_.end() && std::get<0>(lo->first) == doc_id) {
        if (std::get<1>(lo->first) != open.rules_version) {
          lo = plan_cache_.erase(lo);
        } else {
          ++lo;
        }
      }
    }
  }
  soe::PlannedProvider provider(&chunk_provider, parsed_header.chunk_count,
                                plan != nullptr ? *plan : soe::FetchPlan{},
                                options.max_prefetch);
  applet_.SetChunkProvider(&provider);

  // Drive the card over APDUs. The transport charges a dedicated cost
  // model for terminal-side accounting; the card's own session cost is
  // reported in its stats.
  soe::CostModel link_cost(applet_.engine().profile());
  soe::ApduTransport transport(&link_cost);

  ApduCommand select;
  select.ins = Ins::kSelectDocument;
  {
    ByteWriter w;
    w.PutString(doc_id);
    w.PutLengthPrefixed(open.header);
    select.data = w.Take();
  }
  ApduResponse resp = transport.Exchange(&applet_, select);
  if (!resp.ok()) return FromSw(resp.sw, "select");

  ApduCommand put_rules;
  put_rules.ins = Ins::kPutRules;
  put_rules.data = open.sealed_rules;
  resp = transport.Exchange(&applet_, put_rules);
  if (!resp.ok()) return FromSw(resp.sw, "put-rules");

  ApduCommand run;
  run.ins = Ins::kRunQuery;
  {
    ByteWriter w;
    w.PutString(user_);
    w.PutString(options.query);
    w.PutU8(options.use_skip ? 1 : 0);
    run.data = w.Take();
  }
  resp = transport.Exchange(&applet_, run);
  if (!resp.ok()) return FromSw(resp.sw, "run-query");

  // Page the delivered view out of the card.
  QueryResult result;
  for (;;) {
    ApduCommand fetch;
    fetch.ins = Ins::kFetchOutput;
    ApduResponse slice = transport.Exchange(&applet_, fetch);
    if (!slice.ok()) return FromSw(slice.sw, "fetch-output");
    result.xml.append(reinterpret_cast<const char*>(slice.data.data()),
                      slice.data.size());
    if (slice.sw == soe::kSwOk) break;
  }

  ApduCommand end;
  end.ins = Ins::kEndSession;
  result.card = applet_.last_stats();
  transport.Exchange(&applet_, end);

  result.dsp_bytes_fetched = open.wire_bytes + chunk_provider.wire_bytes();
  result.dsp_round_trips = 1 + chunk_provider.round_trips();
  result.apdu_round_trips = transport.exchanges();

  result.plan_ranges = provider.plan().runs.size();
  result.plan_trips = provider.planned_trips();
  result.window_trips = provider.window_trips();
  if (plan == nullptr) {
    // The session completed: the recorded access pattern IS the skip
    // filter's decision sequence for this (doc, rules version, query,
    // skip mode) — compile and cache it for the next identical query.
    soe::FetchPlan learned =
        soe::FetchPlan::FromChunkSequence(provider.requested());
    result.plan_ranges = learned.runs.size();
    plan_cache_.insert_or_assign(plan_key, std::move(learned));
    result.plan_learned = true;
  }
  return result;
}

}  // namespace csxa::proxy
