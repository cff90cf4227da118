#include "dsp/store.h"

#include <mutex>

namespace csxa::dsp {

Result<Response> DspServer::Execute(Request request) {
  return table_.Served([&]() -> Result<Response> {
    switch (request.op) {
      case Op::kPublish: {
        // Parse before taking the lock: validation needs no store state.
        DocTable<>::Entry entry;
        CSXA_RETURN_IF_ERROR(entry.SetContainer(std::move(request.container)));
        entry.sealed_rules = std::move(request.sealed_rules);
        std::unique_lock lock(mu_);
        entry.rules_version =
            table_.NextVersion(request.doc_id, request.force_rules_version);
        Response resp;
        resp.rules_version = entry.rules_version;
        table_.Publish(request.doc_id, std::move(entry));
        return resp;
      }

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
