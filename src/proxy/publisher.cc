#include "proxy/publisher.h"

#include "core/rule.h"
#include "core/rule_envelope.h"

namespace csxa::proxy {

Result<Bytes> Publisher::SealRules(const crypto::SymmetricKey& key,
                                   const core::RuleSet& rules,
                                   const std::string& doc_id) {
  // Monotone per-document version: the card's anti-rollback anchor. One
  // cipher context seals every subject's record.
  uint64_t version = ++rules_versions_[doc_id];
  return core::SealRuleEnvelope(crypto::DocCipher::For(key), rules, version,
                                &rng_);
}

Result<PublishReceipt> Publisher::Publish(const std::string& doc_id,
                                          const xml::DomDocument& doc,
                                          const std::string& rules_text,
                                          const PublishOptions& options) {
  CSXA_ASSIGN_OR_RETURN(core::RuleSet rules,
                        core::RuleSet::ParseText(rules_text));
  PublishReceipt receipt;
  receipt.key = crypto::SymmetricKey::Generate(&rng_);

  skipindex::EncodeOptions eopt;
  eopt.with_index = options.with_index;
  eopt.recursive_bitmaps = options.recursive_bitmaps;
  CSXA_ASSIGN_OR_RETURN(Bytes encoded,
                        skipindex::EncodeDocument(doc, eopt,
                                                  &receipt.encode_stats));
  receipt.plaintext_bytes = encoded.size();

  Bytes container = crypto::SecureContainer::Seal(receipt.key, encoded,
                                                  options.chunk_size, &rng_);
  receipt.container_bytes = container.size();

  CSXA_ASSIGN_OR_RETURN(Bytes sealed_rules,
                        SealRules(receipt.key, rules, doc_id));
  receipt.sealed_rules_bytes = sealed_rules.size();

  CSXA_RETURN_IF_ERROR(
      dsp_->Publish(doc_id, std::move(container), std::move(sealed_rules)));
  // Key distribution through the (simulated) PKI for every subject.
  for (const std::string& subject : rules.Subjects()) {
    registry_->RegisterUser(subject);
    CSXA_RETURN_IF_ERROR(registry_->Grant(doc_id, subject, receipt.key));
  }
  return receipt;
}

Result<size_t> Publisher::UpdateRules(const std::string& doc_id,
                                      const crypto::SymmetricKey& key,
                                      const std::string& rules_text) {
  CSXA_ASSIGN_OR_RETURN(core::RuleSet rules,
                        core::RuleSet::ParseText(rules_text));
  CSXA_ASSIGN_OR_RETURN(Bytes sealed, SealRules(key, rules, doc_id));
  size_t size = sealed.size();
  CSXA_RETURN_IF_ERROR(dsp_->UpdateRules(doc_id, std::move(sealed)));
  for (const std::string& subject : rules.Subjects()) {
    registry_->RegisterUser(subject);
    if (!registry_->Fetch(doc_id, subject).ok()) {
      CSXA_RETURN_IF_ERROR(registry_->Grant(doc_id, subject, key));
    }
  }
  return size;
}

}  // namespace csxa::proxy
