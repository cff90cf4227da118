#include "soe/card_engine.h"

#include "xml/writer.h"
#include "xpath/parser.h"

namespace csxa::soe {

Result<core::RuleLabel> CardEngine::LabelFor(const std::string& doc_id,
                                             std::string_view subject) const {
  auto key_it = keys_.find(doc_id);
  if (key_it == keys_.end()) {
    return Status::NotFound("no key installed for document " + doc_id);
  }
  return core::SubjectLabel(crypto::DocCipher::For(key_it->second), subject);
}

Result<SessionOutput> CardEngine::RunSession(const std::string& doc_id,
                                             Span header_bytes,
                                             Span rule_message,
                                             ChunkProvider* provider,
                                             const SessionOptions& options) {
  SessionOutput out;
  CSXA_ASSIGN_OR_RETURN(out.stats,
                        RunSession(doc_id, header_bytes, rule_message,
                                   provider, options, &out.view_xml));
  return out;
}

Result<SessionStats> CardEngine::RunSession(const std::string& doc_id,
                                            Span header_bytes,
                                            Span rule_message,
                                            ChunkProvider* provider,
                                            const SessionOptions& options,
                                            std::string* view) {
  auto key_it = keys_.find(doc_id);
  if (key_it == keys_.end()) {
    return Status::NotFound("no key installed for document " + doc_id);
  }
  // The key's cipher context, derived once: the root check, the rules and
  // every chunk use it.
  const crypto::DocCipher cipher = crypto::DocCipher::For(key_it->second);

  CostModel cost(profile_);
  RamMeter ram(profile_.ram_budget, options.strict_ram);

  // The header and the rules the card receives travel over the link.
  cost.AddTransfer(header_bytes.size());
  cost.AddTransfer(rule_message.size());

  ByteReader header_reader(header_bytes);
  CSXA_ASSIGN_OR_RETURN(crypto::ContainerHeader header,
                        crypto::ContainerHeader::DecodeFrom(&header_reader));
  // Root MAC check before trusting anything.
  cost.AddHash(crypto::ContainerHeader::kWireSize);
  CSXA_RETURN_IF_ERROR(crypto::SecureContainer::VerifyRoot(cipher, header));

  // Open the subject's rules: the label over its name, the header and
  // record MACs over what arrived and the record's decryption inside the
  // card, then the anti-rollback check against secure stable storage.
  const core::RuleLabel label = core::SubjectLabel(cipher, options.subject);
  CSXA_ASSIGN_OR_RETURN(
      uint64_t version,
      core::OpenRuleMessage(cipher, rule_message, label, options.subject,
                            &rules_plain_, &subject_rules_));
  cost.AddHash(options.subject.size() + rule_message.size());
  cost.AddDecrypt(rules_plain_.size());
  auto version_it = rules_versions_.find(doc_id);
  if (version_it != rules_versions_.end() && version < version_it->second) {
    return Status::IntegrityError(
        "stale rule set: version " + std::to_string(version) +
        " < last seen " + std::to_string(version_it->second));
  }
  rules_versions_[doc_id] = version;

  xpath::PathExpr query;
  const xpath::PathExpr* query_ptr = nullptr;
  if (!options.query_text.empty()) {
    CSXA_ASSIGN_OR_RETURN(query, xpath::ParsePath(options.query_text));
    query_ptr = &query;
  }

  if (options.push_mode) {
    // The broadcast reaches the card in full; charge it once upfront.
    cost.AddTransfer(provider->TotalWireBytes());
  }
  uint64_t round_trips_before = provider->round_trips();
  ChunkSource source(cipher, header, provider, &cost,
                     /*charge_transfer=*/!options.push_mode);
  if (decoder_ == nullptr) {
    CSXA_ASSIGN_OR_RETURN(decoder_, skipindex::DocumentDecoder::Open(&source));
  } else {
    CSXA_RETURN_IF_ERROR(decoder_->Reopen(&source));
  }

  xml::CanonicalWriter writer(view);
  if (evaluator_ == nullptr) {
    CSXA_ASSIGN_OR_RETURN(evaluator_,
                          core::StreamingEvaluator::Create(
                              subject_rules_, query_ptr, &writer));
  } else {
    CSXA_RETURN_IF_ERROR(
        evaluator_->Reset(subject_rules_, query_ptr, &writer));
  }

  skipindex::FilterOptions fopts;
  fopts.enable_skip = options.use_skip;
  core::StreamingEvaluator* ev = evaluator_.get();
  skipindex::DocumentDecoder* dec = decoder_.get();
  ChunkSource* src = &source;
  // Fixed applet overhead: key material, session bookkeeping, I/O staging.
  // Every other term is a running total, so metering is O(1) per event.
  constexpr size_t kFixedOverhead = 96;
  fopts.on_event = [ev, dec, src, &ram]() {
    return ram.Update(kFixedOverhead + ev->ModeledRamBytes() +
                      dec->ModeledBytes() + src->ModeledBytes());
  };
  skipindex::FilterStats fstats;
  CSXA_RETURN_IF_ERROR(
      skipindex::RunFiltered(dec, ev, fopts, &fstats));

  // The delivered view streams back to the terminal.
  cost.AddTransfer(view->size());
  cost.AddEvaluator(ev->stats().events, ev->TotalTransitions());
  // Every provider batch the session triggered was one terminal<->DSP
  // request. Push mode charges none: the broadcast already arrived.
  if (!options.push_mode) {
    cost.AddRoundTrip(provider->round_trips() - round_trips_before);
  }

  SessionStats st;
  st.transfer_seconds = cost.TransferSeconds();
  st.crypto_seconds = cost.CryptoSeconds();
  st.evaluator_seconds = cost.EvaluatorSeconds();
  st.round_trip_seconds = cost.RoundTripSeconds();
  st.total_seconds = cost.TotalSeconds();
  st.bytes_transferred = cost.bytes_transferred();
  st.bytes_decrypted = cost.bytes_decrypted();
  st.apdu_exchanges = cost.apdu_exchanges();
  st.dsp_round_trips = cost.round_trips();
  st.chunks_fetched = source.chunks_fetched();
  st.chunks_avoided = source.chunks_avoided();
  st.bytes_skipped = fstats.bytes_skipped;
  st.skips = fstats.skips;
  st.evaluator = ev->stats();
  st.ram_peak = ram.peak();
  st.ram_budget = ram.budget();
  st.output_bytes = view->size();
  return st;
}

}  // namespace csxa::soe
