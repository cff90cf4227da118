#include "dsp/store.h"

#include <mutex>

namespace csxa::dsp {

Result<Response> DspServer::ApplyPublish(Request& request) {
  // Probe under the shared lock: a republish whose container bytes are
  // identical to the stored ones (rules-only republish, replication
  // catch-up replays) can skip the re-parse entirely.
  bool maybe_identical = false;
  {
    std::shared_lock lock(mu_);
    const DocTable<>::Entry* stored = table_.Find(request.doc_id);
    maybe_identical =
        stored != nullptr && *stored->container_bytes == request.container;
  }
  DocTable<>::Entry entry;
  if (!maybe_identical) {
    CSXA_RETURN_IF_ERROR(entry.SetContainer(std::move(request.container)));
  }
  entry.sealed_rules = std::move(request.sealed_rules);

  std::unique_lock lock(mu_);
  entry.rules_version =
      table_.NextVersion(request.doc_id, request.force_rules_version);
  Response resp;
  resp.rules_version = entry.rules_version;
  DocTable<>::Entry* stored = table_.Find(request.doc_id);
  if (maybe_identical && stored != nullptr &&
      *stored->container_bytes == request.container) {
    // Confirmed under the exclusive lock: keep the stored container and
    // its parse, replacing only rules and version.
    publish_parse_skips_.fetch_add(1, std::memory_order_relaxed);
    stored->sealed_rules = std::move(entry.sealed_rules);
    stored->rules_version = entry.rules_version;
    return resp;
  }
  if (!entry.loaded()) {
    // The probe matched but a racing write changed the stored bytes before
    // we got the exclusive lock: parse now.
    CSXA_RETURN_IF_ERROR(entry.SetContainer(std::move(request.container)));
  }
  table_.Publish(request.doc_id, std::move(entry));
  return resp;
}

Result<Response> DspServer::Execute(Request request) {
  return table_.Served([&]() -> Result<Response> {
    switch (request.op) {
      case Op::kPublish:
        return ApplyPublish(request);

      case Op::kUpdateRules: {
        std::unique_lock lock(mu_);
        CSXA_ASSIGN_OR_RETURN(DocTable<>::Entry * entry,
                              table_.Lookup(request.doc_id));
        entry->rules_version =
            table_.NextVersion(request.doc_id, request.force_rules_version);
        entry->sealed_rules = std::move(request.sealed_rules);
        Response resp;
        resp.rules_version = entry->rules_version;
        return resp;
      }

      case Op::kRemove: {
        std::unique_lock lock(mu_);
        CSXA_ASSIGN_OR_RETURN(const DocTable<>::Entry* entry,
                              table_.Lookup(request.doc_id));
        table_.Remove(request.doc_id, entry->rules_version);
        return Response{};
      }

      case Op::kPing:
        return table_.Ping();

      case Op::kOpenDocument:
      case Op::kGetChunks:
      case Op::kGetContainer: {
        std::shared_lock lock(mu_);
        CSXA_ASSIGN_OR_RETURN(const DocTable<>::Entry* entry,
                              table_.Lookup(request.doc_id));
        return table_.Read(request, *entry);
      }
    }
    return Status::InvalidArgument("unknown DSP op");
  }());
}

}  // namespace csxa::dsp
