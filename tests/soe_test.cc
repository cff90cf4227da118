// SOE substrate tests: cost model arithmetic, RAM metering,
// chunk source behaviour under skips and tampering, card engine sessions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <sstream>

#include "common/random.h"
#include "common/varint.h"
#include "core/rule.h"
#include "core/ref_evaluator.h"
#include "core/rule_envelope.h"
#include "crypto/container.h"
#include "crypto/modes.h"
#include "proxy/publisher.h"
#include "scengen/scenario.h"
#include "skipindex/codec.h"
#include "soe/card_engine.h"
#include "soe/chunk_source.h"
#include "soe/cost_model.h"
#include "soe/ram_meter.h"
#include "xml/generator.h"
#include "xpath/parser.h"
#include "rule_message.h"

namespace csxa {
namespace {

using crypto::SecureContainer;
using crypto::SymmetricKey;
using soe::CardProfile;
using soe::ChunkData;
using soe::CostModel;

TEST(CostModelTest, TransferTimeMatchesLinkRate) {
  CardProfile p = CardProfile::EGate();
  CostModel cost(p);
  cost.AddTransfer(2048);  // exactly one second of payload at 2 KB/s
  EXPECT_NEAR(cost.TransferSeconds(),
              1.0 + static_cast<double>(cost.apdu_exchanges()) * p.apdu_latency_sec,
              1e-9);
  EXPECT_EQ(cost.apdu_exchanges(), (2048u + 254u) / 255u);
}

TEST(CostModelTest, CryptoAndEvaluatorCycles) {
  CardProfile p = CardProfile::EGate();
  CostModel cost(p);
  cost.AddDecrypt(1000);
  cost.AddHash(500);
  cost.AddEvaluator(10, 100);
  double cycles = 1000 * p.cycles_per_byte_decrypt + 500 * p.cycles_per_byte_hash;
  EXPECT_NEAR(cost.CryptoSeconds(), cycles / (p.cpu_mhz * 1e6), 1e-12);
  double ecycles = 10 * p.cycles_per_event + 100 * p.cycles_per_nfa_transition;
  EXPECT_NEAR(cost.EvaluatorSeconds(), ecycles / (p.cpu_mhz * 1e6), 1e-12);
  EXPECT_NEAR(cost.TotalSeconds(),
              cost.TransferSeconds() + cost.CryptoSeconds() +
                  cost.EvaluatorSeconds(),
              1e-12);
}

TEST(RamMeterTest, TracksPeakAndBudget) {
  soe::RamMeter lax(100, /*strict=*/false);
  EXPECT_TRUE(lax.Update(50).ok());
  EXPECT_TRUE(lax.Update(150).ok());  // over budget but not strict
  EXPECT_TRUE(lax.Update(20).ok());
  EXPECT_EQ(lax.peak(), 150u);
  EXPECT_EQ(lax.current(), 20u);

  soe::RamMeter strict(100, /*strict=*/true);
  EXPECT_TRUE(strict.Update(100).ok());
  Status st = strict.Update(101);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

// In-memory provider over a parsed container, with optional tampering.
class TestProvider : public soe::ContainerChunkProvider {
 public:
  explicit TestProvider(const SecureContainer* c)
      : ContainerChunkProvider(c), container_(c) {}
  uint32_t tamper_index_ = UINT32_MAX;
  uint32_t swap_with_ok_proof_ = UINT32_MAX;
  size_t fetches_ = 0;

 protected:
  Status FetchRuns(std::span<const skipindex::ChunkRun> runs,
                   std::vector<ChunkData>* out) override {
    size_t at = out->size();
    CSXA_RETURN_IF_ERROR(ContainerChunkProvider::FetchRuns(runs, out));
    for (const skipindex::ChunkRun& run : runs) {
      for (uint32_t index = run.first; index < run.first + run.count;
           ++index) {
        ChunkData& chunk = (*out)[at++];
        // Served chunks view the container; a tampered one is this
        // provider's own mutated copy.
        if (index == tamper_index_) {
          Bytes flipped = chunk.ciphertext.ToBytes();
          flipped[0] ^= 0xFF;
          chunk.SetOwnedCiphertext(std::move(flipped));
        }
        if (index == swap_with_ok_proof_) {
          // Substitute another chunk's ciphertext, keep this index's auth.
          auto other = container_->ChunkCiphertext(0);
          if (other.ok()) chunk.ciphertext = other.value();
        }
        ++fetches_;
      }
    }
    return Status::OK();
  }

 private:
  const SecureContainer* container_;
};

struct SealedDoc {
  SymmetricKey key;
  Bytes container_bytes;
  SecureContainer container;
  crypto::ContainerHeader header;
};

SealedDoc MakeSealed(size_t payload_size, size_t chunk_size, uint64_t seed) {
  Rng rng(seed);
  SealedDoc doc;
  doc.key = SymmetricKey::Generate(&rng);
  Bytes payload;
  payload.reserve(payload_size);
  for (size_t i = 0; i < payload_size; ++i) {
    payload.push_back(static_cast<uint8_t>(rng.Next()));
  }
  doc.container_bytes =
      SecureContainer::Seal(doc.key, payload, chunk_size, &rng);
  doc.container = SecureContainer::Parse(doc.container_bytes).value();
  doc.header = doc.container.header();
  return doc;
}

TEST(ChunkSourceTest, SequentialReadMatchesPayload) {
  SealedDoc doc = MakeSealed(3000, 512, 21);
  TestProvider provider(&doc.container);
  CostModel cost(CardProfile::EGate());
  soe::ChunkSource src(crypto::DocCipher::For(doc.key), doc.header,
                       &provider, &cost);
  Bytes read(3000);
  ASSERT_TRUE(src.ReadExact(read.data(), read.size()).ok());
  EXPECT_TRUE(src.AtEnd());
  auto full = SecureContainer::OpenAll(doc.key, doc.container_bytes).value();
  EXPECT_EQ(read, full);
  EXPECT_EQ(src.chunks_fetched(), doc.header.chunk_count);
  EXPECT_GT(cost.bytes_decrypted(), 0u);
}

TEST(ChunkSourceTest, SkipAvoidsFetchingChunks) {
  SealedDoc doc = MakeSealed(512 * 10, 512, 22);
  TestProvider provider(&doc.container);
  CostModel cost(CardProfile::EGate());
  soe::ChunkSource src(crypto::DocCipher::For(doc.key), doc.header,
                       &provider, &cost);
  uint8_t buf[16];
  ASSERT_TRUE(src.ReadExact(buf, 16).ok());       // chunk 0
  ASSERT_TRUE(src.Skip(512 * 7).ok());            // land in chunk 7
  ASSERT_TRUE(src.ReadExact(buf, 16).ok());
  EXPECT_LE(provider.fetches_, 3u);
  EXPECT_GE(src.chunks_avoided(), 6u);
}

TEST(ChunkSourceTest, TamperedChunkRejected) {
  SealedDoc doc = MakeSealed(2048, 512, 23);
  TestProvider provider(&doc.container);
  provider.tamper_index_ = 2;
  CostModel cost(CardProfile::EGate());
  soe::ChunkSource src(crypto::DocCipher::For(doc.key), doc.header,
                       &provider, &cost);
  Bytes read(2048);
  Status st = src.ReadExact(read.data(), read.size());
  EXPECT_EQ(st.code(), StatusCode::kIntegrityError);
}

TEST(ChunkSourceTest, SubstitutedChunkRejected) {
  SealedDoc doc = MakeSealed(2048, 512, 24);
  TestProvider provider(&doc.container);
  provider.swap_with_ok_proof_ = 3;
  CostModel cost(CardProfile::EGate());
  soe::ChunkSource src(crypto::DocCipher::For(doc.key), doc.header,
                       &provider, &cost);
  Bytes read(2048);
  EXPECT_EQ(read.size(), 2048u);
  Status st = src.ReadExact(read.data(), read.size());
  EXPECT_EQ(st.code(), StatusCode::kIntegrityError);
}

TEST(ChunkSourceTest, ReadPastEndFails) {
  SealedDoc doc = MakeSealed(100, 64, 25);
  TestProvider provider(&doc.container);
  soe::ChunkSource src(crypto::DocCipher::For(doc.key), doc.header,
                       &provider, nullptr);
  Bytes read(101);
  EXPECT_FALSE(src.ReadExact(read.data(), read.size()).ok());
}

// --- Card engine sessions -------------------------------------------------

xml::DomDocument HospitalDoc(size_t elements) {
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kHospital;
  gp.target_elements = elements;
  gp.seed = 100;
  return xml::GenerateDocument(gp);
}

struct EngineFixture {
  Rng rng{77};
  SymmetricKey key;
  xml::DomDocument doc;
  Bytes header_bytes;
  Bytes sealed_rules;
  Bytes container_bytes;
  std::unique_ptr<SecureContainer> container;
  std::unique_ptr<TestProvider> provider;

  explicit EngineFixture(const std::string& rules_text,
                         size_t doc_elements = 400, size_t chunk_size = 512)
      : EngineFixture(rules_text, HospitalDoc(doc_elements), chunk_size) {}

  EngineFixture(const std::string& rules_text, xml::DomDocument document,
                size_t chunk_size)
      : doc(std::move(document)) {
    key = SymmetricKey::Generate(&rng);
    auto encoded = skipindex::EncodeDocument(doc, {}).value();
    container_bytes = SecureContainer::Seal(key, encoded, chunk_size, &rng);
    container = std::make_unique<SecureContainer>(
        SecureContainer::Parse(container_bytes).value());
    ByteWriter hw;
    container->header().EncodeTo(&hw);
    header_bytes = hw.Take();
    auto rules = core::RuleSet::ParseText(rules_text).value();
    sealed_rules = core::SealRuleEnvelope(crypto::DocCipher::For(key), rules,
                                          /*version=*/1, &rng);
    provider = std::make_unique<TestProvider>(container.get());
  }

  // What `subject`'s card receives of `envelope` (default: the fixture's).
  Bytes Message(const std::string& subject) const {
    return Message(sealed_rules, subject);
  }
  Bytes Message(Span envelope, const std::string& subject) const {
    auto message = fakes::RuleMessageFor(crypto::DocCipher::For(key), envelope,
                                         subject);
    EXPECT_TRUE(message.ok()) << message.status().ToString();
    return message.ok() ? message.value() : Bytes{};
  }
};

TEST(CardEngineTest, SessionDeliversAuthorizedView) {
  EngineFixture fx("+ doctor //patient\n- doctor //admin/billing\n");
  soe::CardEngine card(CardProfile::EGate());
  card.InstallKey("doc", fx.key);
  soe::SessionOptions opts;
  opts.subject = "doctor";
  auto out = card.RunSession("doc", fx.header_bytes, fx.Message(opts.subject),
                             fx.provider.get(), opts);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out.value().view_xml.find("<patient"), std::string::npos);
  EXPECT_EQ(out.value().view_xml.find("<amount>"), std::string::npos);
  EXPECT_GT(out.value().stats.total_seconds, 0.0);
  EXPECT_GT(out.value().stats.evaluator.events, 0u);
}

TEST(CardEngineTest, MissingKeyFails) {
  EngineFixture fx("+ u //patient\n");
  soe::CardEngine card(CardProfile::EGate());
  soe::SessionOptions opts;
  opts.subject = "u";
  auto out = card.RunSession("doc", fx.header_bytes, fx.Message(opts.subject),
                             fx.provider.get(), opts);
  EXPECT_EQ(out.status().code(), StatusCode::kNotFound);
}

TEST(CardEngineTest, TamperedRulesRejected) {
  EngineFixture fx("+ u //patient\n");
  Bytes message = fx.Message("u");
  message[20] ^= 0x01;
  soe::CardEngine card(CardProfile::EGate());
  card.InstallKey("doc", fx.key);
  soe::SessionOptions opts;
  opts.subject = "u";
  auto out = card.RunSession("doc", fx.header_bytes, message,
                             fx.provider.get(), opts);
  EXPECT_EQ(out.status().code(), StatusCode::kIntegrityError);
}

TEST(CardEngineTest, SkipReducesDecryption) {
  // Small chunks so skipped subtrees clear whole chunks (the paper's card
  // fetched small APDU-sized units anyway).
  EngineFixture fx("+ accountant //patient/admin\n", 2000, 128);
  soe::CardEngine card(CardProfile::EGate());
  card.InstallKey("doc", fx.key);

  soe::SessionOptions with_skip;
  with_skip.subject = "accountant";
  auto a = card.RunSession("doc", fx.header_bytes, fx.Message("accountant"),
                           fx.provider.get(), with_skip);
  ASSERT_TRUE(a.ok());

  soe::SessionOptions no_skip = with_skip;
  no_skip.use_skip = false;
  auto b = card.RunSession("doc", fx.header_bytes, fx.Message("accountant"),
                           fx.provider.get(), no_skip);
  ASSERT_TRUE(b.ok());

  EXPECT_EQ(a.value().view_xml, b.value().view_xml);
  EXPECT_LT(a.value().stats.bytes_decrypted, b.value().stats.bytes_decrypted);
  EXPECT_LT(a.value().stats.total_seconds, b.value().stats.total_seconds);
  EXPECT_GT(a.value().stats.skips, 0u);
}

TEST(CardEngineTest, PushModeChargesFullBroadcast) {
  EngineFixture fx("+ u //patient/admin\n", 600, 128);
  soe::CardEngine card(CardProfile::EGate());
  card.InstallKey("doc", fx.key);
  soe::SessionOptions opts;
  opts.subject = "u";
  opts.push_mode = true;
  auto out = card.RunSession("doc", fx.header_bytes, fx.Message(opts.subject),
                             fx.provider.get(), opts);
  ASSERT_TRUE(out.ok());
  // Transfer must be at least the broadcast (payload) size even though
  // many chunks were never decrypted.
  EXPECT_GE(out.value().stats.bytes_transferred,
            fx.container->header().payload_size);
  EXPECT_GT(out.value().stats.chunks_avoided, 0u);
}

TEST(CardEngineTest, StrictRamViolationSurfaces) {
  EngineFixture fx("+ u //patient\n", 800);
  CardProfile tiny = CardProfile::EGate();
  tiny.ram_budget = 64;  // absurdly small: must trip
  soe::CardEngine card(tiny);
  card.InstallKey("doc", fx.key);
  soe::SessionOptions opts;
  opts.subject = "u";
  opts.strict_ram = true;
  auto out = card.RunSession("doc", fx.header_bytes, fx.Message(opts.subject),
                             fx.provider.get(), opts);
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

TEST(CardEngineTest, RamPeakReported) {
  EngineFixture fx("+ u //patient\n", 300);
  soe::CardEngine card(CardProfile::EGate());
  card.InstallKey("doc", fx.key);
  soe::SessionOptions opts;
  opts.subject = "u";
  auto out = card.RunSession("doc", fx.header_bytes, fx.Message(opts.subject),
                             fx.provider.get(), opts);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out.value().stats.ram_peak, 0u);
  EXPECT_EQ(out.value().stats.ram_budget, CardProfile::EGate().ram_budget);
}

// --- Per-subject rule envelope --------------------------------------------
//
// A card receives the envelope's header and its own subject's record
// (core::CutRuleMessage), or the header alone when its subject has none,
// and parses only that record. The hospital scenario's envelope holds
// four subjects' records.

std::string ViewOracle(const xml::DomDocument& doc, const std::string& rules,
                       const std::string& subject) {
  auto set = core::RuleSet::ParseText(rules).value();
  auto view = core::BuildAuthorizedView(doc, set.ForSubject(subject), nullptr);
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  return view.ok() ? view.value().Serialize() : "";
}

// Subjects of the hospital envelope, plus one it has no rule for.
std::vector<std::string> HospitalSubjects() {
  auto rules =
      core::RuleSet::ParseText(scengen::HospitalScenario().rules_text).value();
  std::vector<std::string> subjects = rules.Subjects();
  subjects.push_back("nobody");
  return subjects;
}

// One record's plaintext as the owner encodes it: per rule, the sign and
// the length-prefixed object text.
Bytes RecordPlain(
    const std::vector<std::pair<core::Sign, std::string>>& rules) {
  ByteWriter w;
  for (const auto& [sign, object] : rules) {
    w.PutU8(static_cast<uint8_t>(sign));
    PutVarint(&w, object.size());
    w.PutBytes(Span(object));
  }
  return w.Take();
}

// Seals an envelope by hand, following the layout core/rule_envelope.h
// documents, from each subject's record plaintext: bytes only a key
// holder could produce, including ones the owner's RuleSet never encodes.
Bytes HandSeal(const SymmetricKey& key, uint64_t version, Rng* rng,
               const std::vector<std::pair<std::string, Bytes>>& records) {
  const crypto::DocCipher cipher = crypto::DocCipher::For(key);
  auto mac = [&](const std::string& domain, std::vector<Span> parts) {
    ByteWriter in;
    in.PutString(domain);  // u32 length || name
    for (Span part : parts) in.PutBytes(part);
    return cipher.mac.Mac(in.bytes());
  };
  std::vector<std::pair<core::RuleLabel, Bytes>> labeled;
  for (const auto& [subject, plain] : records) {
    labeled.emplace_back(core::SubjectLabel(cipher, subject), plain);
  }
  std::sort(labeled.begin(), labeled.end());
  ByteWriter out;
  out.PutU64(version);
  out.PutU64(rng->Next());  // the 16 B nonce
  out.PutU64(rng->Next());
  const Bytes nonce(out.bytes().begin() + 8, out.bytes().end());
  PutVarint(&out, labeled.size());
  for (const auto& entry : labeled) {
    out.PutBytes(Span(entry.first.data(), entry.first.size()));
  }
  const crypto::Digest header_tag = mac("rule-header", {out.bytes()});
  const Span tag(header_tag.data(), 16);
  out.PutBytes(tag);
  for (const auto& [label, plain] : labeled) {
    // The counter block: the nonce, the label folded into its first 8
    // bytes, the last 4 cleared.
    crypto::Iv iv;
    std::copy_n(nonce.begin(), iv.size(), iv.begin());
    for (size_t i = 0; i < label.size(); ++i) iv[i] ^= label[i];
    std::fill(iv.begin() + 12, iv.end(), 0);
    Bytes ciphertext;
    crypto::CtrTransform(cipher.enc, iv, plain, &ciphertext);
    const crypto::Digest record_tag =
        mac("rule-record", {tag, Span(label.data(), label.size()),
                            Span(ciphertext)});
    PutVarint(&out, ciphertext.size());
    out.PutBytes(ciphertext);
    out.PutBytes(Span(record_tag.data(), 16));
  }
  return out.Take();
}

Bytes Concat(Span a, Span b) {
  Bytes out(a.data(), a.data() + a.size());
  out.insert(out.end(), b.data(), b.data() + b.size());
  return out;
}

// The parts of an envelope the subjects' cards receive.
struct EnvelopeParts {
  Bytes header;
  std::map<std::string, Bytes> record;  // empty for a subject without one

  EnvelopeParts(const EngineFixture& fx, Span envelope) {
    header = fx.Message(envelope, "nobody");
    for (const std::string& subject : HospitalSubjects()) {
      Bytes message = fx.Message(envelope, subject);
      record[subject].assign(message.begin() + header.size(), message.end());
    }
  }
};

// Runs `subject`'s session on `message` as the rules it receives.
Status RunWithRules(soe::CardEngine* card, const EngineFixture& fx,
                    const std::string& subject, Span message,
                    std::string* view = nullptr) {
  soe::SessionOptions opts;
  opts.subject = subject;
  auto out = card->RunSession("doc", fx.header_bytes, message,
                              fx.provider.get(), opts);
  if (out.ok() && view != nullptr) *view = out.value().view_xml;
  return out.status();
}

TEST(SubjectRulesTest, HandSealMatchesTheOwnersEnvelope) {
  const std::string text = scengen::HospitalScenario().rules_text;
  EngineFixture fx(text, 100);
  auto rules = core::RuleSet::ParseText(text).value();
  std::vector<std::pair<std::string, Bytes>> records;
  for (const std::string& subject : rules.Subjects()) {
    std::vector<std::pair<core::Sign, std::string>> own;
    for (const core::AccessRule& rule : rules.ForSubject(subject)) {
      own.emplace_back(rule.sign, rule.object_text);
    }
    records.emplace_back(subject, RecordPlain(own));
  }
  Rng a(5), b(5);
  EXPECT_EQ(core::SealRuleEnvelope(crypto::DocCipher::For(fx.key), rules, 3,
                                   &a),
            HandSeal(fx.key, 3, &b, records));
}

TEST(SubjectRulesTest, EverySubjectsSessionMatchesTheOracle) {
  const std::string rules = scengen::HospitalScenario().rules_text;
  EngineFixture fx(rules);
  soe::CardEngine card(CardProfile::EGate());
  card.InstallKey("doc", fx.key);
  const std::vector<std::string> subjects = HospitalSubjects();
  ASSERT_EQ(subjects.size(), 5u);
  // Twice round, so each subject also follows another on the same card.
  for (int round = 0; round < 2; ++round) {
    for (const std::string& subject : subjects) {
      std::string view = "unset";
      Status st = RunWithRules(&card, fx, subject, fx.Message(subject), &view);
      ASSERT_TRUE(st.ok()) << subject << ": " << st.ToString();
      EXPECT_EQ(view, ViewOracle(fx.doc, rules, subject)) << subject;
      if (subject == "nobody") {
        EXPECT_EQ(view, "");
      }
    }
  }
}

// Each card gets the header and its own record, so a flip there fails its
// session. A flip in another subject's record never reaches it: the
// session keeps its view, unless the flip misframed the terminal's cut,
// which then fails too.
TEST(SubjectRulesTest, FlippedByteFailsIntegrityWhereverACardReceivesIt) {
  const std::string text = scengen::HospitalScenario().rules_text;
  EngineFixture fx(text, 100);
  const EnvelopeParts parts(fx, fx.sealed_rules);
  soe::CardEngine card(CardProfile::EGate());
  card.InstallKey("doc", fx.key);
  const crypto::DocCipher cipher = crypto::DocCipher::For(fx.key);
  std::map<std::string, std::string> views;
  std::map<std::string, size_t> record_at;
  for (const auto& [subject, record] : parts.record) {
    views[subject] = ViewOracle(fx.doc, text, subject);
    record_at[subject] =
        std::search(fx.sealed_rules.begin(), fx.sealed_rules.end(),
                    record.begin(), record.end()) -
        fx.sealed_rules.begin();
  }
  size_t kept = 0;
  for (size_t pos = 0; pos < fx.sealed_rules.size(); ++pos) {
    Bytes bad = fx.sealed_rules;
    bad[pos] ^= 0x01;
    for (const auto& [subject, record] : parts.record) {
      const bool receives =
          pos < parts.header.size() ||
          (!record.empty() && pos >= record_at[subject] &&
           pos < record_at[subject] + record.size());
      Bytes message;
      Status st = core::CutRuleMessage(
          bad, core::SubjectLabel(cipher, subject), &message);
      std::string view;
      if (st.ok()) st = RunWithRules(&card, fx, subject, message, &view);
      if (receives || !st.ok()) {
        EXPECT_EQ(st.code(), StatusCode::kIntegrityError)
            << subject << " at byte " << pos;
      } else {
        EXPECT_EQ(view, views[subject]) << subject << " at byte " << pos;
        ++kept;
      }
    }
  }
  EXPECT_GT(kept, fx.sealed_rules.size());  // other records' flips
  // And every byte of what each card receives.
  for (const auto& [subject, record] : parts.record) {
    const Bytes message = Concat(parts.header, record);
    for (size_t pos = 0; pos < message.size(); ++pos) {
      Bytes bad = message;
      bad[pos] ^= 0x80;
      EXPECT_EQ(RunWithRules(&card, fx, subject, bad).code(),
                StatusCode::kIntegrityError)
          << subject << " at byte " << pos;
    }
  }
}

TEST(SubjectRulesTest, RecordMovedToAnotherLabelFails) {
  EngineFixture fx(scengen::HospitalScenario().rules_text, 100);
  const EnvelopeParts parts(fx, fx.sealed_rules);
  soe::CardEngine card(CardProfile::EGate());
  card.InstallKey("doc", fx.key);
  for (const auto& [subject, record] : parts.record) {
    for (const auto& [other, other_record] : parts.record) {
      if (other == subject || other_record.empty()) continue;
      EXPECT_EQ(RunWithRules(&card, fx, subject,
                      Concat(parts.header, other_record))
                    .code(),
                StatusCode::kIntegrityError)
          << other << "'s record as " << subject << "'s";
    }
  }
  // Swapping two labels in the header moves each record to the other's
  // label; the header tag no longer matches.
  const size_t labels = 8 + 16 + 1;
  Bytes swapped = parts.header;
  std::swap_ranges(swapped.begin() + labels, swapped.begin() + labels + 8,
                   swapped.begin() + labels + 8);
  for (const auto& [subject, record] : parts.record) {
    EXPECT_EQ(RunWithRules(&card, fx, subject, Concat(swapped, record)).code(),
              StatusCode::kIntegrityError)
        << subject;
  }
  EXPECT_EQ(card.LastRulesVersion("doc"), 0u);
}

TEST(SubjectRulesTest, RecordFromAnotherVersionOrDocumentFails) {
  const std::string text = scengen::HospitalScenario().rules_text;
  EngineFixture fx(text, 100);  // sealed at version 1
  auto rules = core::RuleSet::ParseText(text).value();
  const crypto::DocCipher cipher = crypto::DocCipher::For(fx.key);
  const Bytes v2 = core::SealRuleEnvelope(cipher, rules, 2, &fx.rng);
  const Bytes v1_again = core::SealRuleEnvelope(cipher, rules, 1, &fx.rng);
  const SymmetricKey other_key = SymmetricKey::Generate(&fx.rng);
  const Bytes other_doc = core::SealRuleEnvelope(
      crypto::DocCipher::For(other_key), rules, 1, &fx.rng);
  const EnvelopeParts v1_parts(fx, fx.sealed_rules);
  const EnvelopeParts v2_parts(fx, v2);
  const EnvelopeParts again_parts(fx, v1_again);
  soe::CardEngine card(CardProfile::EGate());
  card.InstallKey("doc", fx.key);
  for (const char* subject : {"doctor", "accountant"}) {
    // The same subject's record in the other document's envelope.
    Bytes other_record;
    {
      Bytes message;
      ASSERT_TRUE(core::CutRuleMessage(
                      other_doc,
                      core::SubjectLabel(crypto::DocCipher::For(other_key),
                                         subject),
                      &message)
                      .ok());
      other_record.assign(message.begin() + v1_parts.header.size(),
                          message.end());
    }
    const Bytes forged[] = {
        Concat(v1_parts.header, v2_parts.record.at(subject)),
        Concat(v2_parts.header, v1_parts.record.at(subject)),
        Concat(v1_parts.header, again_parts.record.at(subject)),
        Concat(v1_parts.header, other_record),
    };
    for (const Bytes& message : forged) {
      EXPECT_EQ(RunWithRules(&card, fx, subject, message).code(),
                StatusCode::kIntegrityError)
          << subject;
    }
  }
  EXPECT_EQ(card.LastRulesVersion("doc"), 0u);
}

TEST(SubjectRulesTest, TruncatedRecordFailsIntegrity) {
  EngineFixture fx(scengen::HospitalScenario().rules_text, 100);
  soe::CardEngine card(CardProfile::EGate());
  card.InstallKey("doc", fx.key);
  for (const std::string& subject : HospitalSubjects()) {
    const Bytes message = fx.Message(subject);
    // Every cut: inside the header, at its end (a withheld record) or
    // inside the record.
    for (size_t cut = 0; cut < message.size(); ++cut) {
      EXPECT_EQ(RunWithRules(&card, fx, subject, Span(message.data(), cut)).code(),
                StatusCode::kIntegrityError)
          << subject << " cut at " << cut << " of " << message.size();
    }
  }
  EXPECT_EQ(card.LastRulesVersion("doc"), 0u);
}

TEST(SubjectRulesTest, EditedLabelListFails) {
  EngineFixture fx(scengen::HospitalScenario().rules_text, 100);
  const EnvelopeParts parts(fx, fx.sealed_rules);
  const core::RuleLabel nobody =
      core::SubjectLabel(crypto::DocCipher::For(fx.key), "nobody");
  const size_t count_at = 8 + 16;
  const size_t n = parts.header[count_at];
  ASSERT_EQ(n, 4u);
  const size_t tag_at = parts.header.size() - 16;
  // Drop the last label; append nobody's; put nobody's in place of the
  // first.
  Bytes dropped = parts.header;
  dropped[count_at] = static_cast<uint8_t>(n - 1);
  dropped.erase(dropped.begin() + tag_at - 8, dropped.begin() + tag_at);
  Bytes appended = parts.header;
  appended[count_at] = static_cast<uint8_t>(n + 1);
  appended.insert(appended.begin() + tag_at, nobody.begin(), nobody.end());
  Bytes replaced = parts.header;
  std::copy(nobody.begin(), nobody.end(), replaced.begin() + count_at + 1);
  soe::CardEngine card(CardProfile::EGate());
  card.InstallKey("doc", fx.key);
  for (const Bytes* header : {&dropped, &appended, &replaced}) {
    for (const auto& [subject, record] : parts.record) {
      EXPECT_EQ(RunWithRules(&card, fx, subject, Concat(*header, record)).code(),
                StatusCode::kIntegrityError)
          << subject;
    }
  }
  EXPECT_EQ(card.LastRulesVersion("doc"), 0u);
}

// The header lists a card's label or does not, and the card takes exactly
// its record or nothing.
TEST(SubjectRulesTest, WithheldOrSurplusRecordFails) {
  EngineFixture fx(scengen::HospitalScenario().rules_text, 100);
  const EnvelopeParts parts(fx, fx.sealed_rules);
  soe::CardEngine card(CardProfile::EGate());
  card.InstallKey("doc", fx.key);
  EXPECT_EQ(RunWithRules(&card, fx, "doctor", parts.header).code(),
            StatusCode::kIntegrityError);
  EXPECT_EQ(RunWithRules(&card, fx, "nobody",
                  Concat(parts.header, parts.record.at("doctor")))
                .code(),
            StatusCode::kIntegrityError);
  EXPECT_EQ(RunWithRules(&card, fx, "doctor", fx.sealed_rules).code(),
            StatusCode::kIntegrityError);
  EXPECT_EQ(card.LastRulesVersion("doc"), 0u);
}

TEST(SubjectRulesTest, StaleVersionRefusedForSubjectWithoutRules) {
  const std::string text = scengen::HospitalScenario().rules_text;
  EngineFixture fx(text, 100);  // sealed at version 1
  auto rules = core::RuleSet::ParseText(text).value();
  Bytes v2 = core::SealRuleEnvelope(crypto::DocCipher::For(fx.key), rules,
                                    /*version=*/2, &fx.rng);
  soe::CardEngine card(CardProfile::EGate());
  card.InstallKey("doc", fx.key);
  ASSERT_TRUE(RunWithRules(&card, fx, "nobody", fx.Message(v2, "nobody")).ok());
  EXPECT_EQ(card.LastRulesVersion("doc"), 2u);
  Status stale = RunWithRules(&card, fx, "nobody", fx.Message("nobody"));
  EXPECT_EQ(stale.code(), StatusCode::kIntegrityError);
  EXPECT_NE(stale.ToString().find("stale"), std::string::npos);
  EXPECT_EQ(card.LastRulesVersion("doc"), 2u);
}

// Revocation: version 2 drops the researcher's rules. The researcher's
// card gets the empty view under it and then refuses a replay of version
// 1, which still holds the researcher's record.
TEST(SubjectRulesTest, RevokedSubjectRefusesReplayOfOlderEnvelope) {
  const std::string text = scengen::HospitalScenario().rules_text;
  EngineFixture fx(text, 100);  // sealed at version 1
  std::string revoked;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.find(" researcher ") == std::string::npos) revoked += line + "\n";
  }
  ASSERT_LT(revoked.size(), text.size());
  Bytes v2 = core::SealRuleEnvelope(
      crypto::DocCipher::For(fx.key),
      core::RuleSet::ParseText(revoked).value(), /*version=*/2, &fx.rng);
  soe::CardEngine card(CardProfile::EGate());
  card.InstallKey("doc", fx.key);
  const Bytes now = fx.Message(v2, "researcher");
  EXPECT_EQ(now.size(), fx.Message(v2, "nobody").size());  // no record
  std::string view = "unset";
  ASSERT_TRUE(RunWithRules(&card, fx, "researcher", now, &view).ok());
  EXPECT_EQ(view, "");
  EXPECT_EQ(card.LastRulesVersion("doc"), 2u);
  const Bytes replay = fx.Message("researcher");
  EXPECT_GT(replay.size(), now.size());
  Status stale = RunWithRules(&card, fx, "researcher", replay);
  EXPECT_EQ(stale.code(), StatusCode::kIntegrityError);
  EXPECT_NE(stale.ToString().find("stale"), std::string::npos);
}

// Envelopes below are hand-sealed under the document key: authentic
// records whose plaintext the owner's RuleSet would never encode. They
// fail to parse (ParseError), and only for the subject whose record it is.

TEST(SubjectRulesTest, TruncatedPlaintextFailsParseForItsSubject) {
  EngineFixture fx("+ doctor //patient\n", 100);
  const std::vector<std::pair<core::Sign, std::string>> doctor_rules = {
      {core::Sign::kPermit, "//patient"},
      {core::Sign::kDeny, "//admin/billing"},
      {core::Sign::kPermit, "//admin/billing/amount"}};
  const Bytes full = RecordPlain(doctor_rules);
  // A cut between whole rules leaves a shorter, well-formed record.
  std::set<size_t> boundaries = {0};
  for (size_t k = 1; k <= doctor_rules.size(); ++k) {
    boundaries.insert(
        RecordPlain({doctor_rules.begin(), doctor_rules.begin() + k}).size());
  }
  soe::CardEngine card(CardProfile::EGate());
  card.InstallKey("doc", fx.key);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    const Bytes envelope = HandSeal(
        fx.key, 1, &fx.rng,
        {{"doctor", Bytes(full.begin(), full.begin() + cut)},
         {"nurse", RecordPlain({{core::Sign::kPermit, "//patient"}})}});
    Status doctor = RunWithRules(&card, fx, "doctor", fx.Message(envelope, "doctor"));
    if (boundaries.count(cut) > 0) {
      EXPECT_TRUE(doctor.ok()) << "cut at " << cut << ": " << doctor.ToString();
    } else {
      EXPECT_EQ(doctor.code(), StatusCode::kParseError)
          << "cut at " << cut << " of " << full.size();
    }
    EXPECT_TRUE(RunWithRules(&card, fx, "nurse", fx.Message(envelope, "nurse")).ok())
        << "cut at " << cut;
  }
}

TEST(SubjectRulesTest, UnparsableObjectFailsOnlyItsOwnSubject) {
  EngineFixture fx("+ doctor //patient\n", 200);
  ASSERT_FALSE(xpath::ParsePath("//patient[[").ok());
  const Bytes envelope = HandSeal(
      fx.key, 1, &fx.rng,
      {{"doctor", RecordPlain({{core::Sign::kPermit, "//patient"},
                               {core::Sign::kDeny, "//admin/billing"}})},
       {"nurse", RecordPlain({{core::Sign::kDeny, "//patient[["}})}});
  soe::CardEngine card(CardProfile::EGate());
  card.InstallKey("doc", fx.key);
  std::string view;
  Status doctor =
      RunWithRules(&card, fx, "doctor", fx.Message(envelope, "doctor"), &view);
  ASSERT_TRUE(doctor.ok()) << doctor.ToString();
  EXPECT_EQ(view, ViewOracle(fx.doc,
                             "+ doctor //patient\n- doctor //admin/billing\n",
                             "doctor"));
  EXPECT_EQ(RunWithRules(&card, fx, "nurse", fx.Message(envelope, "nurse")).code(),
            StatusCode::kParseError);
}

// --- Decoder reuse ---------------------------------------------------------
//
// The card keeps one DocumentDecoder and reopens it per session, keeping
// its dictionaries when a document's names are the ones it holds.

TEST(DecoderReuseTest, OneCardAlternatesOverDocuments) {
  const std::string rules =
      "+ u //patient\n- u //diag\n+ u //person\n- u //label\n"
      "- u //billing\n";
  auto parse = [](const char* text) {
    return xml::DomDocument::Parse(text).value();
  };
  // `same` has base's dictionary; `renamed` as many names, all different;
  // `larger` more tags and attributes.
  EngineFixture base(rules, parse(
      "<folder><patient id=\"1\"><name>Ann</name><diag sev=\"acute\">flu"
      "</diag></patient><patient id=\"2\"><name>Bob</name></patient>"
      "</folder>"), 32);
  EngineFixture same(rules, parse(
      "<folder><patient id=\"3\"><name>Cy</name><diag sev=\"mild\">cough"
      "</diag></patient></folder>"), 32);
  EngineFixture renamed(rules, parse(
      "<record><person key=\"1\"><label>Ann</label><note lvl=\"acute\">"
      "flu</note></person></record>"), 32);
  EngineFixture larger(rules, parse(
      "<folder><patient id=\"1\" ward=\"B\"><name>Ann</name><diag "
      "sev=\"acute\">flu</diag><admin><billing>10</billing></admin>"
      "</patient></folder>"), 32);
  struct Doc {
    const char* id;
    EngineFixture* fx;
  };
  const Doc docs[] = {{"base", &base}, {"same", &same},
                      {"renamed", &renamed}, {"larger", &larger}};
  soe::CardEngine card(CardProfile::EGate());
  for (const Doc& d : docs) {
    card.InstallKey(d.id, d.fx->key);
    ASSERT_GE(d.fx->container->header().chunk_count, 3u) << d.id;
  }
  soe::SessionOptions opts;
  opts.subject = "u";
  auto run = [&](const Doc& d, soe::CardEngine* on) {
    return on->RunSession(d.id, d.fx->header_bytes, d.fx->Message("u"),
                          d.fx->provider.get(), opts);
  };
  // base, same, base, renamed, base, larger, then base failing on its
  // last chunk (after the dictionaries and some events), then each again.
  const int order[] = {0, 1, 0, 2, 0, 3, 0, -1, 0, 2, 3, 1};
  for (int k : order) {
    const Doc& d = docs[k < 0 ? 0 : k];
    SCOPED_TRACE(d.id);
    if (k < 0) {
      d.fx->provider->tamper_index_ = d.fx->container->header().chunk_count - 1;
      auto failed = run(d, &card);
      d.fx->provider->tamper_index_ = UINT32_MAX;
      EXPECT_EQ(failed.status().code(), StatusCode::kIntegrityError);
      continue;
    }
    auto out = run(d, &card);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out.value().view_xml, ViewOracle(d.fx->doc, rules, "u"));
    // A reused decoder meters what a new card's decoder meters.
    soe::CardEngine fresh(CardProfile::EGate());
    fresh.InstallKey(d.id, d.fx->key);
    auto want = run(d, &fresh);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(out.value().stats.ram_peak, want.value().stats.ram_peak);
    EXPECT_EQ(out.value().stats.total_seconds,
              want.value().stats.total_seconds);
  }
}

// --- Golden modeled costs -------------------------------------------------
//
// Every modeled number a card session reports, pinned for a fixed grid:
// hospital document x 3 subjects (skip-heavy accountant, negative-rule
// researcher, predicate-pending emergency) x {acute-patients query, none}
// x skip {on, off} x chunk {64, 256} B. Host-side work on
// the scan loop (metering, decoding, byte sources) must leave all of them
// byte-identical, `total_seconds` down to its bit pattern. Only a
// deliberate change to the cost or RAM model may edit this table; a
// mismatch prints the row the current code produces. A change that should
// move only the rules' terms is checked against the old table with
// scripts/golden_delta.py.

struct GoldenRow {
  const char* subject;
  bool query;
  bool skip;
  uint32_t chunk;
  size_t ram_peak;
  size_t modeled_ram_peak;
  uint64_t bytes_transferred;
  uint64_t bytes_decrypted;
  uint64_t apdu_exchanges;
  uint64_t dsp_round_trips;
  uint64_t total_seconds_bits;
};

constexpr GoldenRow kGoldenSessions[] = {
    // subject, query, skip, chunk, ram_peak, evaluator peak,
    // transferred, decrypted, apdus, dsp trips, total_seconds bits
    {"accountant", false, true, 64, 543, 70, 12174, 5828, 106, 91, 0x4023a71cee711aadull},
    {"accountant", false, false, 64, 558, 71, 17646, 9476, 163, 148, 0x402dd44f9f3cb1ddull},
    {"accountant", true, true, 64, 638, 171, 14648, 9092, 148, 142, 0x402a5b8eaeec2b3eull},
    {"accountant", true, false, 64, 638, 171, 15224, 9476, 154, 148, 0x402b7043ce926b9aull},
    {"researcher", false, true, 64, 595, 108, 24340, 9509, 189, 148, 0x40323cecdf46f546ull},
    {"researcher", false, false, 64, 595, 108, 24340, 9509, 189, 148, 0x40323e32c3cbf766ull},
    {"researcher", true, true, 64, 990, 512, 16801, 9509, 160, 148, 0x402d01d2b46efaf2ull},
    {"researcher", true, false, 64, 1056, 584, 16801, 9509, 160, 148, 0x402d049ed5a5fa76ull},
    {"emergency", false, true, 64, 1013, 546, 17293, 9515, 162, 148, 0x402d7b619715f709ull},
    {"emergency", false, false, 64, 1085, 618, 17293, 9515, 162, 148, 0x402d7d5ad02b4d2aull},
    {"emergency", true, true, 64, 1091, 624, 17293, 9515, 162, 148, 0x402d7dccba055d72ull},
    {"emergency", true, false, 64, 1164, 696, 17293, 9515, 162, 148, 0x402d80064b47aed8ull},
    {"accountant", false, true, 256, 735, 70, 14094, 9476, 89, 37, 0x402129e8ded9a6eaull},
    {"accountant", false, false, 256, 750, 71, 14094, 9476, 89, 37, 0x40212ed06bce030dull},
    {"accountant", true, true, 256, 830, 171, 11672, 9476, 80, 37, 0x401d8f8d1979203cull},
    {"accountant", true, false, 256, 830, 171, 11672, 9476, 80, 37, 0x401d958936477996ull},
    {"researcher", false, true, 256, 787, 108, 20788, 9509, 115, 37, 0x4027d45a8b1f3bbeull},
    {"researcher", false, false, 256, 787, 108, 20788, 9509, 115, 37, 0x4027d6e654293ffdull},
    {"researcher", true, true, 256, 1182, 512, 13249, 9509, 86, 37, 0x40205c5381004c22ull},
    {"researcher", true, false, 256, 1248, 584, 13249, 9509, 86, 37, 0x40205f1fa2374ba6ull},
    {"emergency", false, true, 256, 1205, 546, 13741, 9515, 88, 37, 0x4020d5e263a7483aull},
    {"emergency", false, false, 256, 1277, 618, 13741, 9515, 88, 37, 0x4020d7db9cbc9e5aull},
    {"emergency", true, true, 256, 1283, 624, 13741, 9515, 88, 37, 0x4020d84d8696aea2ull},
    {"emergency", true, false, 256, 1356, 696, 13741, 9515, 88, 37, 0x4020da8717d90008ull},
};

const char kGoldenQuery[] =
    "//patient[medical/diagnosis/severity=\"acute\"]";

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// One sealed hospital document per chunk size, with the
// hospital scenario's rule set sealed under the same key.
struct GoldenDoc {
  SymmetricKey key;
  Bytes header_bytes;
  Bytes sealed_rules;
  Bytes container_bytes;  // the parsed container borrows these bytes
  std::unique_ptr<SecureContainer> container;

  explicit GoldenDoc(uint32_t chunk) {
    Rng rng(4242);
    key = SymmetricKey::Generate(&rng);
    scengen::Scenario scenario = scengen::HospitalScenario();
    xml::DomDocument doc =
        scengen::MakeScenarioDocument(scenario, 600, /*seed=*/31);
    Bytes encoded = skipindex::EncodeDocument(doc, {}).value();
    container_bytes = SecureContainer::Seal(key, encoded, chunk, &rng);
    container = std::make_unique<SecureContainer>(
        SecureContainer::Parse(container_bytes).value());
    ByteWriter hw;
    container->header().EncodeTo(&hw);
    header_bytes = hw.Take();
    auto rules = core::RuleSet::ParseText(scenario.rules_text).value();
    sealed_rules = core::SealRuleEnvelope(crypto::DocCipher::For(key), rules,
                                          /*version=*/1, &rng);
  }

  Result<soe::SessionOutput> Run(const GoldenRow& row,
                                 const CardProfile& profile,
                                 bool strict_ram) const {
    soe::CardEngine card(profile);
    return RunOn(&card, row, strict_ram);
  }

  // The same session on `card`, which may have run other sessions before.
  // With `tamper_chunk` set, that chunk arrives flipped and the session
  // fails when it reads it.
  Result<soe::SessionOutput> RunOn(soe::CardEngine* card, const GoldenRow& row,
                                   bool strict_ram,
                                   uint32_t tamper_chunk = UINT32_MAX) const {
    card->InstallKey("doc", key);
    TestProvider provider(container.get());
    provider.tamper_index_ = tamper_chunk;
    soe::SessionOptions opts;
    opts.subject = row.subject;
    if (row.query) opts.query_text = kGoldenQuery;
    opts.use_skip = row.skip;
    opts.strict_ram = strict_ram;
    return card->RunSession(
        "doc", header_bytes,
        fakes::RuleMessageFor(crypto::DocCipher::For(key), sealed_rules,
                              row.subject)
            .value(),
        &provider, opts);
  }
};

std::string FormatRow(const GoldenRow& key, const soe::SessionStats& st) {
  std::ostringstream os;
  os << "{\"" << key.subject << "\", " << (key.query ? "true" : "false")
     << ", " << (key.skip ? "true" : "false") << ", " << key.chunk << ", "
     << st.ram_peak << ", "
     << st.evaluator.modeled_ram_peak << ", " << st.bytes_transferred << ", "
     << st.bytes_decrypted << ", " << st.apdu_exchanges << ", "
     << st.dsp_round_trips << ", 0x" << std::hex
     << DoubleBits(st.total_seconds) << "ull},";
  return os.str();
}

const GoldenRow* FindGolden(const GoldenRow& key) {
  for (const GoldenRow& row : kGoldenSessions) {
    if (std::strcmp(row.subject, key.subject) == 0 &&
        row.query == key.query && row.skip == key.skip &&
        row.chunk == key.chunk) {
      return &row;
    }
  }
  return nullptr;
}

TEST(GoldenSessionTest, ModeledCostsAreByteIdentical) {
  size_t checked = 0;
  for (uint32_t chunk : {64u, 256u}) {
    GoldenDoc doc(chunk);
    for (const char* subject : {"accountant", "researcher", "emergency"}) {
      for (bool query : {false, true}) {
        for (bool skip : {true, false}) {
          GoldenRow key{subject, query, skip, chunk, 0, 0, 0, 0, 0, 0, 0};
          auto out = doc.Run(key, CardProfile::EGate(), false);
          ASSERT_TRUE(out.ok()) << out.status().ToString();
          const soe::SessionStats& st = out.value().stats;
          std::string actual = FormatRow(key, st);
          const GoldenRow* want = FindGolden(key);
          if (want == nullptr) {
            ADD_FAILURE() << "no golden row; current code gives\n"
                          << actual;
            continue;
          }
          EXPECT_EQ(st.ram_peak, want->ram_peak) << actual;
          EXPECT_EQ(st.evaluator.modeled_ram_peak, want->modeled_ram_peak)
              << actual;
          EXPECT_EQ(st.bytes_transferred, want->bytes_transferred)
              << actual;
          EXPECT_EQ(st.bytes_decrypted, want->bytes_decrypted) << actual;
          EXPECT_EQ(st.apdu_exchanges, want->apdu_exchanges) << actual;
          EXPECT_EQ(st.dsp_round_trips, want->dsp_round_trips) << actual;
          EXPECT_EQ(DoubleBits(st.total_seconds), want->total_seconds_bits)
              << actual;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, std::size(kGoldenSessions));
}

// One card runs the whole grid, forwards then backwards, with a session
// that fails on a tampered last chunk (which holds the root's close, so
// every scan reads it) after each: its evaluator is Reset() between
// subjects, queries and skip modes, and after a scan aborted with the
// root still open. Every session still gives its golden modeled costs,
// and the view and evaluator counters of a fresh card.
TEST(GoldenSessionTest, ReusedCardMatchesFreshCards) {
  size_t checked = 0;
  for (uint32_t chunk : {64u, 256u}) {
    GoldenDoc doc(chunk);
    std::vector<GoldenRow> keys;
    for (const char* subject : {"accountant", "researcher", "emergency"}) {
      for (bool query : {false, true}) {
        for (bool skip : {true, false}) {
          keys.push_back(
              GoldenRow{subject, query, skip, chunk, 0, 0, 0, 0, 0, 0, 0});
        }
      }
    }
    soe::CardEngine card(CardProfile::EGate());
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t k = 0; k < keys.size(); ++k) {
        const GoldenRow& key = keys[pass == 0 ? k : keys.size() - 1 - k];
        auto fresh = doc.Run(key, CardProfile::EGate(), false);
        auto reused = doc.RunOn(&card, key, false);
        ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
        ASSERT_TRUE(reused.ok()) << reused.status().ToString();
        const soe::SessionStats& a = fresh.value().stats;
        const soe::SessionStats& b = reused.value().stats;
        const std::string row = FormatRow(key, a);
        EXPECT_EQ(FormatRow(key, b), row);
        EXPECT_EQ(reused.value().view_xml, fresh.value().view_xml) << row;
        EXPECT_EQ(b.evaluator.events, a.evaluator.events) << row;
        EXPECT_EQ(b.evaluator.nfa_transitions, a.evaluator.nfa_transitions)
            << row;
        EXPECT_EQ(b.evaluator.obligations_created,
                  a.evaluator.obligations_created)
            << row;
        EXPECT_EQ(b.evaluator.candidates_created,
                  a.evaluator.candidates_created)
            << row;
        EXPECT_EQ(b.evaluator.buffered_events_peak,
                  a.evaluator.buffered_events_peak)
            << row;
        EXPECT_EQ(b.skips, a.skips) << row;
        auto aborted = doc.RunOn(&card, key, false,
                                 doc.container->header().chunk_count - 1);
        EXPECT_EQ(aborted.status().code(), StatusCode::kIntegrityError);
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 2 * std::size(kGoldenSessions));
}

// Strict mode trips at exactly the metered peak: a budget of one byte less
// than the golden ram_peak aborts the session, the peak itself passes.
TEST(GoldenSessionTest, StrictRamFailsAtTheSameBudget) {
  GoldenRow key{"emergency", true, true, 64, 0, 0, 0, 0, 0, 0, 0};
  const GoldenRow* want = FindGolden(key);
  ASSERT_NE(want, nullptr);
  GoldenDoc doc(key.chunk);
  CardProfile profile = CardProfile::EGate();
  profile.ram_budget = want->ram_peak - 1;
  auto over = doc.Run(key, profile, /*strict_ram=*/true);
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  profile.ram_budget = want->ram_peak;
  auto fits = doc.Run(key, profile, /*strict_ram=*/true);
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ(fits.value().stats.ram_peak, want->ram_peak);
}

}  // namespace
}  // namespace csxa
