#include "dsp/doc_table.h"

namespace csxa::dsp {

namespace {
// Modeled fixed framing of a response that carries only status + version
// (the not-modified revalidation reply).
constexpr uint64_t kRevalidationWireBytes = 16;
// Modeled framing of a heartbeat probe reply (status only).
constexpr uint64_t kPingWireBytes = 8;
}  // namespace

Status DocState::SetContainer(Bytes raw) {
  auto bytes = std::make_unique<Bytes>(std::move(raw));
  CSXA_ASSIGN_OR_RETURN(crypto::SecureContainer parsed,
                        crypto::SecureContainer::Parse(*bytes));
  container = std::move(parsed);
  container_bytes = std::move(bytes);
  return Status::OK();
}

Result<Response> DocProtocol::Read(const Request& request,
                                   const DocState& doc) const {
  Response resp;
  // Every read reply carries the rules version, so a replicated read path
  // can detect a lagging replica on ANY read, not just opens.
  resp.rules_version = doc.rules_version;
  switch (request.op) {
    case Op::kOpenDocument: {
      if (request.known_rules_version != 0 &&
          request.known_rules_version == doc.rules_version) {
        // The client's cached header + rules are still current: elide the
        // bodies. A policy update bumps the version and naturally
        // invalidates.
        resp.not_modified = true;
        resp.wire_bytes = kRevalidationWireBytes;
        not_modified_.fetch_add(1, std::memory_order_relaxed);
        return resp;
      }
      const Bytes& raw = *doc.container_bytes;
      if (raw.size() < crypto::ContainerHeader::kWireSize) {
        return Status::Internal("stored container shorter than a header");
      }
      resp.header.assign(raw.begin(),
                         raw.begin() + crypto::ContainerHeader::kWireSize);
      resp.sealed_rules = doc.sealed_rules;
      resp.wire_bytes = resp.header.size() + resp.sealed_rules.size() + 8;
      return resp;
    }
    case Op::kGetChunks: {
      CSXA_ASSIGN_OR_RETURN(
          resp.wire_bytes,
          soe::ServeChunks(doc.container, request.spans, &resp.chunks));
      chunks_served_.fetch_add(resp.chunks.size(), std::memory_order_relaxed);
      return resp;
    }
    case Op::kGetContainer:
      resp.container = *doc.container_bytes;
      resp.wire_bytes = resp.container.size();
      return resp;
    default:
      return Status::InvalidArgument("not a DSP read op");
  }
}

Response DocProtocol::Ping() const {
  Response resp;
  resp.wire_bytes = kPingWireBytes;
  return resp;
}

Result<Response> DocProtocol::Served(Result<Response> result) const {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (result.ok()) {
    bytes_served_.fetch_add(result.value().wire_bytes,
                            std::memory_order_relaxed);
  }
  return result;
}

ServiceStats DocProtocol::Stats(uint64_t documents) const {
  ServiceStats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.chunks_served = chunks_served_.load(std::memory_order_relaxed);
  out.bytes_served = bytes_served_.load(std::memory_order_relaxed);
  out.not_modified = not_modified_.load(std::memory_order_relaxed);
  out.documents = documents;
  return out;
}

}  // namespace csxa::dsp
