#ifndef CSXA_CORE_RULE_ENVELOPE_H_
#define CSXA_CORE_RULE_ENVELOPE_H_

/// \file rule_envelope.h
/// \brief Versioned, sealed rule sets — the access-rights update protocol.
///
/// Demonstration objective 2 (§1) stresses that "the tamper resistance of
/// the access control relies not only on the SOE but also on the whole
/// environment (e.g., communication protocol, access rights update
/// protocol)". The rules blob on the DSP is encrypted and MACed, so it
/// cannot be forged — but an untrusted DSP could *replay a stale version*
/// (e.g., re-serve a permissive policy after the owner restricted it).
///
/// Defense: the owner seals a monotonically increasing version number
/// inside the envelope; the card records, in its secure stable storage,
/// the highest version it has seen per document and refuses anything
/// older. A card that never saw the newer policy cannot detect the
/// rollback — the inherent limit of offline revocation, shared with the
/// original system.

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "core/rule.h"
#include "crypto/container.h"

namespace csxa::core {

/// Seals (version || rules) under the document key's record format.
inline Bytes SealRuleSet(const crypto::SymmetricKey& key, const RuleSet& rules,
                         uint64_t version, Rng* rng) {
  ByteWriter plain;
  plain.PutU64(version);
  rules.EncodeTo(&plain);
  return crypto::SealRecord(key, plain.bytes(), rng);
}

/// Opens a sealed rule envelope for one subject's session and returns its
/// version. Verifies the MAC under the document's cipher context, decrypts
/// into `*plain` (scratch the caller reuses), reads the version and checks
/// the framing of every record, then parses the XPath objects of
/// `subject`'s rules only, in envelope order, into `*rules`, whose
/// elements are reused.
///
/// Contract: a record of another subject is framed, never parsed, so an
/// object that does not parse fails only its own subject's sessions. The
/// owner parses every rule before sealing (RuleSet::Add) and the MAC pins
/// those bytes, so on a genuine envelope this parse could never fail.
inline Result<uint64_t> OpenRuleSet(const crypto::DocCipher& cipher,
                                    Span sealed, std::string_view subject,
                                    Bytes* plain,
                                    std::vector<AccessRule>* rules) {
  CSXA_RETURN_IF_ERROR(crypto::OpenRecord(cipher, sealed, plain));
  ByteReader r(*plain);
  uint64_t version;
  if (!r.GetU64(&version)) {
    return Status::ParseError("rule envelope missing version");
  }
  uint32_t n;
  if (!r.GetU32(&n)) return Status::ParseError("rule set truncated");
  auto chars = [](Span s) {
    return std::string_view(reinterpret_cast<const char*>(s.data()),
                            s.size());
  };
  size_t kept = 0;
  for (uint32_t i = 0; i < n; ++i) {
    uint8_t sign;
    Span who, object;
    if (!r.GetU8(&sign) || !r.GetLengthPrefixed(&who) ||
        !r.GetLengthPrefixed(&object)) {
      return Status::ParseError("rule set truncated");
    }
    if (chars(who) != subject) continue;
    if (kept == rules->size()) rules->emplace_back();
    AccessRule& rule = (*rules)[kept++];
    rule.sign = sign == 0 ? Sign::kPermit : Sign::kDeny;
    rule.subject.assign(subject);
    rule.object_text.assign(chars(object));
    CSXA_ASSIGN_OR_RETURN(rule.object, xpath::ParsePath(rule.object_text));
  }
  rules->resize(kept);
  return version;
}

}  // namespace csxa::core

#endif  // CSXA_CORE_RULE_ENVELOPE_H_
