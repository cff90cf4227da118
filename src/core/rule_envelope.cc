#include "core/rule_envelope.h"

#include <algorithm>

#include "common/varint.h"
#include "crypto/modes.h"
#include "crypto/sha256.h"

namespace csxa::core {

namespace {

constexpr size_t kNonceSize = 16;
constexpr size_t kTagSize = 16;

Span Chars(std::string_view s) {
  return Span(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

// A MAC under the document's MAC key, opened with a u32 length || name
// prefix (the container's chunk MACs open with "chunk" the same way), so
// no label, header or record MAC input can pass for another kind.
crypto::Sha256 BeginMac(const crypto::HmacKey& mac, std::string_view domain) {
  uint8_t length[4];
  for (int i = 0; i < 4; ++i) {
    length[i] = static_cast<uint8_t>(domain.size() >> (8 * i));
  }
  crypto::Sha256 hasher = mac.Begin();
  hasher.Update(Span(length, sizeof(length)));
  hasher.Update(Chars(domain));
  return hasher;
}

crypto::Digest HeaderTag(const crypto::HmacKey& mac, Span authenticated) {
  crypto::Sha256 hasher = BeginMac(mac, "rule-header");
  hasher.Update(authenticated);
  return mac.Finish(hasher);
}

crypto::Digest RecordTag(const crypto::HmacKey& mac, Span header_tag,
                         const RuleLabel& label, Span ciphertext) {
  crypto::Sha256 hasher = BeginMac(mac, "rule-record");
  hasher.Update(header_tag);
  hasher.Update(Span(label.data(), label.size()));
  hasher.Update(ciphertext);
  return mac.Finish(hasher);
}

// The envelope's fresh nonce with the record's label folded into its first
// 8 bytes, and the last 4 cleared for the block counter: labels are
// distinct within an envelope, so each record has its own counter stream.
crypto::Iv RecordIv(Span nonce, const RuleLabel& label) {
  crypto::Iv iv;
  std::copy_n(nonce.data(), iv.size(), iv.begin());
  for (size_t i = 0; i < label.size(); ++i) iv[i] ^= label[i];
  iv[12] = iv[13] = iv[14] = iv[15] = 0;
  return iv;
}

bool TagMatches(const crypto::Digest& want, Span got) {
  return crypto::ConstantTimeEqual(Span(want.data(), kTagSize), got);
}

struct Header {
  uint64_t version = 0;
  Span nonce;
  Span labels;  // 8 B each
  Span tag;
  size_t size = 0;  // through the tag

  size_t count() const { return labels.size() / sizeof(RuleLabel); }
  // The position of `label` in the list, or count() when it is absent.
  size_t Find(const RuleLabel& label) const {
    for (size_t i = 0; i < count(); ++i) {
      if (std::equal(label.begin(), label.end(),
                     labels.data() + i * sizeof(RuleLabel))) {
        return i;
      }
    }
    return count();
  }
};

bool ParseHeader(Span bytes, Header* h) {
  ByteReader r(bytes);
  uint64_t n;
  if (!r.GetU64(&h->version) || !r.GetBytes(kNonceSize, &h->nonce) ||
      !GetVarint(&r, &n) || n > r.remaining() / sizeof(RuleLabel) ||
      !r.GetBytes(n * sizeof(RuleLabel), &h->labels) ||
      !r.GetBytes(kTagSize, &h->tag)) {
    return false;
  }
  h->size = r.position();
  return true;
}

}  // namespace

RuleLabel SubjectLabel(const crypto::DocCipher& cipher,
                       std::string_view subject) {
  crypto::Sha256 hasher = BeginMac(cipher.mac, "rule-label");
  hasher.Update(Chars(subject));
  const crypto::Digest d = cipher.mac.Finish(hasher);
  RuleLabel label;
  std::copy_n(d.begin(), label.size(), label.begin());
  return label;
}

Bytes SealRuleEnvelope(const crypto::DocCipher& cipher, const RuleSet& rules,
                       uint64_t version, Rng* rng) {
  // The subjects by first appearance, each with its record's plaintext
  // size and place in one buffer: per rule, the sign and the object text.
  struct Record {
    std::string_view subject;
    RuleLabel label;
    size_t size = 0;
    size_t at = 0;
  };
  std::vector<Record> records;
  std::vector<size_t> owner(rules.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    const AccessRule& rule = rules.rules()[i];
    size_t s = 0;
    while (s < records.size() && records[s].subject != rule.subject) ++s;
    if (s == records.size()) records.emplace_back().subject = rule.subject;
    owner[i] = s;
    records[s].size += 1 + VarintLength(rule.object_text.size()) +
                       rule.object_text.size();
  }
  size_t plain_size = 0;
  for (Record& rec : records) {
    rec.label = SubjectLabel(cipher, rec.subject);
    rec.at = plain_size;
    plain_size += rec.size;
  }
  ByteWriter plain;
  plain.Reserve(plain_size);
  for (size_t s = 0; s < records.size(); ++s) {
    for (size_t i = 0; i < rules.size(); ++i) {
      if (owner[i] != s) continue;
      const AccessRule& rule = rules.rules()[i];
      plain.PutU8(static_cast<uint8_t>(rule.sign));
      PutVarint(&plain, rule.object_text.size());
      plain.PutBytes(Chars(rule.object_text));
    }
  }
  // The label order says nothing about the policy's order.
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.label < b.label; });

  ByteWriter out;
  out.Reserve(8 + kNonceSize + 10 + records.size() * (8 + 10 + kTagSize) +
              kTagSize + plain_size);
  out.PutU64(version);
  uint8_t nonce[kNonceSize];
  for (size_t i = 0; i < kNonceSize; i += 8) {
    const uint64_t v = rng->Next();
    for (size_t b = 0; b < 8; ++b) {
      nonce[i + b] = static_cast<uint8_t>(v >> (8 * b));
    }
  }
  out.PutBytes(Span(nonce, kNonceSize));
  PutVarint(&out, records.size());
  for (const Record& rec : records) {
    out.PutBytes(Span(rec.label.data(), rec.label.size()));
  }
  const crypto::Digest header_tag = HeaderTag(cipher.mac, out.bytes());
  const Span tag(header_tag.data(), kTagSize);
  out.PutBytes(tag);

  // Each record encrypted in place in the plaintext buffer, then tagged.
  Bytes buffer = plain.Take();
  for (const Record& rec : records) {
    uint8_t* ciphertext = buffer.data() + rec.at;
    cipher.enc.CtrXor(RecordIv(Span(nonce, kNonceSize), rec.label).data(),
                      ciphertext, ciphertext, rec.size);
    const Span sealed(ciphertext, rec.size);
    const crypto::Digest record_tag =
        RecordTag(cipher.mac, tag, rec.label, sealed);
    PutVarint(&out, rec.size);
    out.PutBytes(sealed);
    out.PutBytes(Span(record_tag.data(), kTagSize));
  }
  return out.Take();
}

Status CutRuleMessage(Span envelope, const RuleLabel& label, Bytes* message) {
  Header h;
  if (!ParseHeader(envelope, &h)) {
    return Status::IntegrityError("rule envelope header malformed");
  }
  message->assign(envelope.data(), envelope.data() + h.size);
  const size_t wanted = h.Find(label);
  if (wanted == h.count()) return Status::OK();
  ByteReader r(envelope.subspan(h.size));
  for (size_t i = 0;; ++i) {
    const size_t begin = r.position();
    uint64_t length;
    if (!GetVarint(&r, &length) || !r.Skip(length) || !r.Skip(kTagSize)) {
      return Status::IntegrityError("rule envelope record malformed");
    }
    if (i == wanted) {
      const uint8_t* record = envelope.data() + h.size + begin;
      message->insert(message->end(), record,
                      record + (r.position() - begin));
      return Status::OK();
    }
  }
}

Result<uint64_t> OpenRuleMessage(const crypto::DocCipher& cipher,
                                 Span message, const RuleLabel& label,
                                 std::string_view subject, Bytes* plain,
                                 std::vector<AccessRule>* rules) {
  Header h;
  if (!ParseHeader(message, &h)) {
    return Status::IntegrityError("rule header malformed");
  }
  if (!TagMatches(HeaderTag(cipher.mac, message.subspan(0, h.size - kTagSize)),
                  h.tag)) {
    return Status::IntegrityError("rule header tag mismatch");
  }
  const Span rest = message.subspan(h.size);
  plain->clear();
  if (h.Find(label) == h.count()) {
    if (!rest.empty()) {
      return Status::IntegrityError("rule record for a subject not listed");
    }
    rules->clear();
    return h.version;
  }
  ByteReader r(rest);
  uint64_t length;
  Span ciphertext, tag;
  // The length must be the owner's canonical encoding, so the card takes
  // no byte that the record's tag does not pin.
  if (!GetVarint(&r, &length) || r.position() != VarintLength(length) ||
      !r.GetBytes(length, &ciphertext) || !r.GetBytes(kTagSize, &tag) ||
      !r.AtEnd()) {
    return Status::IntegrityError("rule record missing or malformed");
  }
  if (!TagMatches(RecordTag(cipher.mac, h.tag, label, ciphertext), tag)) {
    return Status::IntegrityError("rule record tag mismatch");
  }
  crypto::CtrTransform(cipher.enc, RecordIv(h.nonce, label), ciphertext,
                       plain);

  ByteReader rp(*plain);
  size_t kept = 0;
  while (!rp.AtEnd()) {
    uint8_t sign;
    uint64_t n;
    Span object;
    if (!rp.GetU8(&sign) || !GetVarint(&rp, &n) || !rp.GetBytes(n, &object)) {
      return Status::ParseError("rule record truncated");
    }
    if (kept == rules->size()) rules->emplace_back();
    AccessRule& rule = (*rules)[kept++];
    rule.sign = sign == 0 ? Sign::kPermit : Sign::kDeny;
    rule.subject.assign(subject);
    rule.object_text.assign(reinterpret_cast<const char*>(object.data()),
                            object.size());
    CSXA_ASSIGN_OR_RETURN(rule.object, xpath::ParsePath(rule.object_text));
  }
  rules->resize(kept);
  return h.version;
}

}  // namespace csxa::core
