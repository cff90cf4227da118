#include "proxy/terminal.h"

#include <optional>
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

// Query-local view of the DSP: counts this session's own calls, and the
// wire bytes of their OK results, whatever else shares the backend.
class CountingService : public dsp::Service {
 public:
  explicit CountingService(dsp::Service* backend) : backend_(backend) {}

  Result<dsp::Response> Execute(dsp::Request request) override {
    ++calls_;
    Result<dsp::Response> result = backend_->Execute(std::move(request));
    if (result.ok()) bytes_ += result.value().wire_bytes;
    return result;
  }
  dsp::ServiceStats stats() const override { return backend_->stats(); }

  uint64_t calls() const { return calls_; }
  uint64_t bytes() const { return bytes_; }

 private:
  dsp::Service* backend_;
  uint64_t calls_ = 0;
  uint64_t bytes_ = 0;
};
}  // namespace

Result<QueryResult> Terminal::Query(const std::string& doc_id,
                                    const QueryOptions& options) {
  // One OpenDocument round trip fetches header + sealed rules + rules
  // version together (three separate calls before the batch protocol).
  CountingService dsp(dsp_);
  CSXA_ASSIGN_OR_RETURN(dsp::Response open, dsp.OpenDocument(doc_id));

  // The chunk supply the card pulls from during the session: a per-chunk
  // Service provider, topped by the selected scheduling layer — adaptive
  // prefetch window or plan-driven multi-span fetches.
  ByteReader header_reader(open.header);
  CSXA_ASSIGN_OR_RETURN(crypto::ContainerHeader parsed_header,
                        crypto::ContainerHeader::DecodeFrom(&header_reader));
  dsp::ServiceChunkProvider chunk_provider(&dsp, doc_id);
  soe::ChunkProvider* provider = &chunk_provider;

  const PlanKey plan_key{doc_id, open.rules_version, options.query,
                         options.use_skip};
  const soe::FetchPlan* plan = nullptr;
  bool learn_plan = false;
  if (options.fetch_policy == FetchPolicy::kPlanned) {
    if (options.plan != nullptr) {
      plan = options.plan;
    } else {
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
        learn_plan = true;
      }
    }
  }

  std::optional<soe::PrefetchingProvider> windowed;
  std::optional<soe::PlannedProvider> planned;
  std::optional<soe::RecordingProvider> recorder;
  if (plan != nullptr) {
    soe::PlannedOptions plopt;
    plopt.max_chunks_per_trip = options.plan_chunks_per_trip;
    planned.emplace(&chunk_provider, parsed_header.chunk_count, *plan, plopt);
    provider = &*planned;
  } else {
    // kWindowed, and the learn-on-first-run leg of kPlanned.
    soe::PrefetchOptions popt;
    popt.max_window = options.max_prefetch;
    windowed.emplace(&chunk_provider, parsed_header.chunk_count, popt);
    provider = &*windowed;
  }
  if (learn_plan) {
    recorder.emplace(provider);
    provider = &*recorder;
  }
  applet_.SetChunkProvider(provider);

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
    uint8_t flags = 0;
    if (options.use_skip) flags |= 1;
    if (options.strict_ram) flags |= 2;
    w.PutU8(flags);
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

  result.dsp_bytes_fetched = dsp.bytes();
  result.dsp_round_trips = dsp.calls();
  result.apdu_round_trips = transport.exchanges();

  result.fetch_policy = options.fetch_policy;
  if (planned.has_value()) {
    result.plan_ranges = planned->plan().runs.size();
    result.plan_trips = planned->planned_trips();
    result.plan_miss_trips = planned->plan_misses();
  }
  if (recorder.has_value()) {
    // The session completed: the recorded access pattern IS the skip
    // filter's decision sequence for this (doc, rules version, query,
    // skip mode) — compile and cache it for the next identical query.
    soe::FetchPlan learned =
        soe::FetchPlan::FromChunkSequence(recorder->requested());
    result.plan_ranges = learned.runs.size();
    plan_cache_.insert_or_assign(plan_key, std::move(learned));
    result.plan_learned = true;
  }
  return result;
}

}  // namespace csxa::proxy
