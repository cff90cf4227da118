#include "soe/applet.h"

namespace csxa::soe {

namespace {
ApduResponse Error(uint16_t sw) {
  ApduResponse r;
  r.sw = sw;
  return r;
}
ApduResponse Ok(Bytes data = {}) {
  ApduResponse r;
  r.data = std::move(data);
  return r;
}
}  // namespace

ApduResponse CsxaApplet::Process(const ApduCommand& command) {
  switch (command.ins) {
    case Ins::kSelectDocument:
      return HandleSelect(command);
    case Ins::kInstallKey:
      return HandleInstallKey(command);
    case Ins::kPutRules:
      return HandlePutRules(command);
    case Ins::kRunQuery:
      return HandleRunQuery(command);
    case Ins::kFetchOutput:
      return HandleFetchOutput(command);
    case Ins::kGetStats:
      return HandleGetStats(command);
    case Ins::kEndSession:
      selected_doc_.clear();
      header_bytes_.clear();
      sealed_rules_.clear();
      output_.clear();
      output_cursor_ = 0;
      session_ready_ = false;
      return Ok();
  }
  return Error(kSwConditionsNotSatisfied);
}

ApduResponse CsxaApplet::HandleSelect(const ApduCommand& cmd) {
  ByteReader r(cmd.data);
  std::string doc_id;
  Span header;
  if (!r.GetString(&doc_id) || !r.GetLengthPrefixed(&header) || !r.AtEnd()) {
    return Error(kSwWrongData);
  }
  if (!engine_.HasKey(doc_id)) return Error(kSwSecurityStatus);
  selected_doc_ = doc_id;
  header_bytes_ = header.ToBytes();
  sealed_rules_.clear();
  output_.clear();
  output_cursor_ = 0;
  session_ready_ = false;
  return Ok();
}

ApduResponse CsxaApplet::HandleInstallKey(const ApduCommand& cmd) {
  ByteReader r(cmd.data);
  std::string doc_id;
  Span key_bytes;
  if (!r.GetString(&doc_id) || !r.GetLengthPrefixed(&key_bytes) || !r.AtEnd() ||
      key_bytes.size() != crypto::kAesKeySize) {
    return Error(kSwWrongData);
  }
  engine_.InstallKey(doc_id, crypto::SymmetricKey(key_bytes));
  return Ok();
}

ApduResponse CsxaApplet::HandlePutRules(const ApduCommand& cmd) {
  if (selected_doc_.empty()) return Error(kSwConditionsNotSatisfied);
  sealed_rules_ = cmd.data;
  return Ok();
}

ApduResponse CsxaApplet::HandleRunQuery(const ApduCommand& cmd) {
  if (selected_doc_.empty() || sealed_rules_.empty() || provider_ == nullptr) {
    return Error(kSwConditionsNotSatisfied);
  }
  ByteReader r(cmd.data);
  SessionOptions opts;
  uint8_t flags;
  if (!r.GetString(&opts.subject) || !r.GetString(&opts.query_text) ||
      !r.GetU8(&flags) || !r.AtEnd()) {
    return Error(kSwWrongData);
  }
  opts.use_skip = (flags & 1) != 0;
  auto result = engine_.RunSession(selected_doc_, header_bytes_, sealed_rules_,
                                   provider_, opts, &output_);
  if (!result.ok()) {
    output_.clear();
    switch (result.status().code()) {
      case StatusCode::kIntegrityError:
        return Error(kSwSecurityStatus);
      case StatusCode::kNotFound:
        return Error(kSwNotFound);
      case StatusCode::kResourceExhausted:
        return Error(kSwConditionsNotSatisfied);
      default:
        return Error(kSwInternal);
    }
  }
  last_stats_ = result.value();
  output_cursor_ = 0;
  session_ready_ = true;
  ByteWriter w;
  w.PutU64(output_.size());
  return Ok(w.Take());
}

ApduResponse CsxaApplet::HandleFetchOutput(const ApduCommand&) {
  if (!session_ready_) return Error(kSwConditionsNotSatisfied);
  constexpr size_t kSlice = 240;
  size_t n = output_.size() - output_cursor_;
  if (n > kSlice) n = kSlice;
  Bytes slice(output_.begin() + static_cast<long>(output_cursor_),
              output_.begin() + static_cast<long>(output_cursor_ + n));
  output_cursor_ += n;
  ApduResponse resp;
  resp.data = std::move(slice);
  resp.sw = output_cursor_ < output_.size() ? kSwMoreData : kSwOk;
  return resp;
}

ApduResponse CsxaApplet::HandleGetStats(const ApduCommand&) {
  if (!session_ready_) return Error(kSwConditionsNotSatisfied);
  ByteWriter w;
  w.PutU64(static_cast<uint64_t>(last_stats_.bytes_transferred));
  w.PutU64(static_cast<uint64_t>(last_stats_.bytes_decrypted));
  w.PutU64(static_cast<uint64_t>(last_stats_.chunks_fetched));
  w.PutU64(static_cast<uint64_t>(last_stats_.chunks_avoided));
  w.PutU64(static_cast<uint64_t>(last_stats_.skips));
  w.PutU64(static_cast<uint64_t>(last_stats_.ram_peak));
  return Ok(w.Take());
}

}  // namespace csxa::soe
