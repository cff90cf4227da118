#include "proxy/terminal.h"

#include <utility>

#include "soe/prefetch.h"

namespace csxa::proxy {

using soe::ApduCommand;
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

  // Drive the card through its command set. The card's own CostModel
  // charges every byte the session moves across the modeled link; the
  // terminal only counts the exchanges. One reply serves every exchange,
  // so paging the view out reuses its buffer slice after slice.
  uint64_t exchanges = 0;
  soe::ApduResponse reply;
  auto exchange = [&](Ins ins, Span data = {}) {
    ++exchanges;
    applet_.Process(ApduCommand{ins, data}, &reply);
    return reply.ok();
  };

  ByteWriter select;
  select.PutString(doc_id);
  select.PutLengthPrefixed(open.header);
  if (!exchange(Ins::kSelectDocument, select.bytes())) {
    return FromSw(reply.sw, "select");
  }
  if (!exchange(Ins::kPutRules, open.sealed_rules)) {
    return FromSw(reply.sw, "put-rules");
  }
  ByteWriter run;
  run.PutString(user_);
  run.PutString(options.query);
  run.PutU8(options.use_skip ? 1 : 0);
  if (!exchange(Ins::kRunQuery, run.bytes())) {
    return FromSw(reply.sw, "run-query");
  }
  // The reply announces the view length: reserve it once, so the slices
  // append without growing the view.
  ByteReader announced(reply.data);
  uint64_t view_size = 0;
  if (!announced.GetU64(&view_size)) {
    return Status::Internal("run-query: no view length in the reply");
  }

  // Page the delivered view out of the card.
  QueryResult result;
  result.xml.reserve(view_size);
  for (;;) {
    if (!exchange(Ins::kFetchOutput)) return FromSw(reply.sw, "fetch-output");
    result.xml.append(reinterpret_cast<const char*>(reply.data.data()),
                      reply.data.size());
    if (reply.sw == soe::kSwOk) break;
  }
  result.card = applet_.last_stats();
  exchange(Ins::kEndSession);

  result.dsp_bytes_fetched = open.wire_bytes + chunk_provider.wire_bytes();
  result.dsp_round_trips = 1 + chunk_provider.round_trips();
  result.apdu_round_trips = exchanges;

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
