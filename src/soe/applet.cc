#include "soe/applet.h"

namespace csxa::soe {

void CsxaApplet::Process(const ApduCommand& command, ApduResponse* reply) {
  reply->data.clear();
  switch (command.ins) {
    case Ins::kSelectDocument:
      reply->sw = HandleSelect(command.data, &reply->data);
      return;
    case Ins::kPutRules:
      reply->sw = HandlePutRules(command.data);
      return;
    case Ins::kRunQuery:
      reply->sw = HandleRunQuery(command.data, &reply->data);
      return;
    case Ins::kFetchOutput:
      reply->sw = HandleFetchOutput(&reply->data);
      return;
    case Ins::kEndSession:
      selected_doc_.clear();
      header_bytes_.clear();
      ResetSession();
      reply->sw = kSwOk;
      return;
  }
  reply->sw = kSwConditionsNotSatisfied;
}

void CsxaApplet::ResetSession() {
  rule_message_.clear();
  output_.clear();
  output_cursor_ = 0;
  session_ready_ = false;
}

uint16_t CsxaApplet::HandleSelect(Span data, Bytes* reply) {
  ByteReader r(data);
  std::string doc_id;
  Span header;
  if (!r.GetString(&doc_id) || !r.GetLengthPrefixed(&header) || !r.AtEnd()) {
    return kSwWrongData;
  }
  auto label = engine_.LabelFor(doc_id, holder_);
  if (!label.ok()) return kSwSecurityStatus;
  selected_doc_ = doc_id;
  header_bytes_.assign(header.data(), header.data() + header.size());
  ResetSession();
  // The reply names the holder's record, the only one the card takes.
  reply->assign(label.value().begin(), label.value().end());
  return kSwOk;
}

uint16_t CsxaApplet::HandlePutRules(Span data) {
  if (selected_doc_.empty()) return kSwConditionsNotSatisfied;
  rule_message_.assign(data.data(), data.data() + data.size());
  return kSwOk;
}

uint16_t CsxaApplet::HandleRunQuery(Span data, Bytes* reply) {
  if (selected_doc_.empty() || rule_message_.empty() || provider_ == nullptr) {
    return kSwConditionsNotSatisfied;
  }
  ByteReader r(data);
  SessionOptions opts;
  uint8_t flags;
  if (!r.GetString(&opts.query_text) || !r.GetU8(&flags) || !r.AtEnd()) {
    return kSwWrongData;
  }
  opts.subject = holder_;
  opts.use_skip = (flags & 1) != 0;
  auto result = engine_.RunSession(selected_doc_, header_bytes_, rule_message_,
                                   provider_, opts, &output_);
  if (!result.ok()) {
    output_.clear();
    switch (result.status().code()) {
      case StatusCode::kIntegrityError:
        return kSwSecurityStatus;
      case StatusCode::kNotFound:
        return kSwNotFound;
      case StatusCode::kResourceExhausted:
        return kSwConditionsNotSatisfied;
      default:
        return kSwInternal;
    }
  }
  last_stats_ = result.value();
  output_cursor_ = 0;
  session_ready_ = true;
  // The reply announces the view length, little-endian u64.
  for (int i = 0; i < 8; ++i) {
    reply->push_back(static_cast<uint8_t>(uint64_t{output_.size()} >> (8 * i)));
  }
  return kSwOk;
}

uint16_t CsxaApplet::HandleFetchOutput(Bytes* reply) {
  if (!session_ready_) return kSwConditionsNotSatisfied;
  constexpr size_t kSlice = 240;
  size_t n = output_.size() - output_cursor_;
  if (n > kSlice) n = kSlice;
  const char* slice = output_.data() + output_cursor_;
  reply->assign(slice, slice + n);
  output_cursor_ += n;
  return output_cursor_ < output_.size() ? kSwMoreData : kSwOk;
}

}  // namespace csxa::soe
