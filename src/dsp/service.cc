#include "dsp/service.h"

namespace csxa::dsp {

Result<Response> Service::OpenDocument(const std::string& doc_id,
                                       uint64_t known_rules_version) {
  Request req;
  req.op = Op::kOpenDocument;
  req.doc_id = doc_id;
  req.known_rules_version = known_rules_version;
  return Execute(std::move(req));
}

Result<std::vector<soe::ChunkData>> Service::GetChunks(
    const std::string& doc_id, std::vector<skipindex::ChunkRun> spans) {
  Request req;
  req.op = Op::kGetChunks;
  req.doc_id = doc_id;
  req.spans = std::move(spans);
  CSXA_ASSIGN_OR_RETURN(Response resp, Execute(std::move(req)));
  return std::move(resp.chunks);
}

Result<Bytes> Service::GetContainer(const std::string& doc_id) {
  Request req;
  req.op = Op::kGetContainer;
  req.doc_id = doc_id;
  CSXA_ASSIGN_OR_RETURN(Response resp, Execute(std::move(req)));
  return std::move(resp.container);
}

Status Service::Publish(const std::string& doc_id, Bytes container,
                        Bytes sealed_rules) {
  Request req;
  req.op = Op::kPublish;
  req.doc_id = doc_id;
  req.container = std::move(container);
  req.sealed_rules = std::move(sealed_rules);
  return Execute(std::move(req)).status();
}

Status Service::UpdateRules(const std::string& doc_id, Bytes sealed_rules) {
  Request req;
  req.op = Op::kUpdateRules;
  req.doc_id = doc_id;
  req.sealed_rules = std::move(sealed_rules);
  return Execute(std::move(req)).status();
}

Status Service::Remove(const std::string& doc_id) {
  Request req;
  req.op = Op::kRemove;
  req.doc_id = doc_id;
  return Execute(std::move(req)).status();
}

Status Service::Ping() {
  Request req;
  req.op = Op::kPing;
  return Execute(std::move(req)).status();
}

}  // namespace csxa::dsp
