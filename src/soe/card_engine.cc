#include "soe/card_engine.h"

#include "skipindex/codec.h"
#include "xml/writer.h"
#include "xpath/parser.h"

namespace csxa::soe {

Result<SessionOutput> CardEngine::RunSession(const std::string& doc_id,
                                             Span header_bytes,
                                             Span sealed_rules,
                                             ChunkProvider* provider,
                                             const SessionOptions& options) {
  auto key_it = keys_.find(doc_id);
  if (key_it == keys_.end()) {
    return Status::NotFound("no key installed for document " + doc_id);
  }
  const crypto::SymmetricKey& key = key_it->second;

  CostModel cost(profile_);
  RamMeter ram(profile_.ram_budget, options.strict_ram);

  // Header and sealed rules travel over the link.
  cost.AddTransfer(header_bytes.size());
  cost.AddTransfer(sealed_rules.size());

  ByteReader header_reader(header_bytes);
  CSXA_ASSIGN_OR_RETURN(crypto::ContainerHeader header,
                        crypto::ContainerHeader::DecodeFrom(&header_reader));
  // Root MAC check before trusting anything.
  cost.AddHash(crypto::ContainerHeader::kWireSize);
  CSXA_RETURN_IF_ERROR(crypto::SecureContainer::VerifyRoot(key, header));

  // Open the rules: MAC verification + CBC decryption inside the card,
  // then the anti-rollback check against secure stable storage.
  cost.AddHash(sealed_rules.size());
  cost.AddDecrypt(sealed_rules.size());
  CSXA_ASSIGN_OR_RETURN(core::VersionedRules envelope,
                        core::OpenRuleSet(key, sealed_rules));
  auto version_it = rules_versions_.find(doc_id);
  if (version_it != rules_versions_.end() &&
      envelope.version < version_it->second) {
    return Status::IntegrityError(
        "stale rule set: version " + std::to_string(envelope.version) +
        " < last seen " + std::to_string(version_it->second));
  }
  rules_versions_[doc_id] = envelope.version;
  core::RuleSet& rules = envelope.rules;

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
  ChunkSource source(key, header, provider, &cost,
                     /*charge_transfer=*/!options.push_mode);
  CSXA_ASSIGN_OR_RETURN(auto decoder, skipindex::DocumentDecoder::Open(&source));

  xml::CanonicalWriter writer;
  CSXA_ASSIGN_OR_RETURN(
      auto evaluator,
      core::StreamingEvaluator::Create(rules.ForSubject(options.subject),
                                       query_ptr, &writer));

  skipindex::FilterOptions fopts;
  fopts.enable_skip = options.use_skip;
  core::StreamingEvaluator* ev = evaluator.get();
  skipindex::DocumentDecoder* dec = decoder.get();
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
  cost.AddTransfer(writer.str().size());
  cost.AddEvaluator(ev->stats().events, ev->TotalTransitions());
  // Every provider batch the session triggered was one terminal<->DSP
  // request. Push mode charges none: the broadcast already arrived.
  if (!options.push_mode) {
    cost.AddRoundTrip(provider->round_trips() - round_trips_before);
  }

  SessionOutput out;
  out.view_xml = writer.str();
  SessionStats& st = out.stats;
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
  st.output_bytes = out.view_xml.size();
  return out;
}

}  // namespace csxa::soe
