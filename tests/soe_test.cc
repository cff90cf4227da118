// SOE substrate tests: cost model arithmetic, RAM metering, APDU codec,
// chunk source behaviour under skips and tampering, card engine sessions.

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "common/random.h"
#include "core/rule.h"
#include "core/rule_envelope.h"
#include "crypto/container.h"
#include "proxy/publisher.h"
#include "scengen/scenario.h"
#include "skipindex/codec.h"
#include "soe/apdu.h"
#include "soe/card_engine.h"
#include "soe/chunk_source.h"
#include "soe/cost_model.h"
#include "soe/ram_meter.h"
#include "xml/generator.h"

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

TEST(ApduTest, CommandCodecRoundTrip) {
  soe::ApduCommand cmd;
  cmd.ins = soe::Ins::kPutRules;
  cmd.p1 = 3;
  cmd.data = Bytes{1, 2, 3, 4, 5};
  ByteWriter w;
  cmd.EncodeTo(&w);
  ByteReader r(w.bytes());
  auto back = soe::ApduCommand::DecodeFrom(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().ins, soe::Ins::kPutRules);
  EXPECT_EQ(back.value().p1, 3);
  EXPECT_EQ(back.value().data, cmd.data);
}

TEST(ApduTest, ResponseCodecRoundTrip) {
  soe::ApduResponse resp;
  resp.data = Bytes{9, 8, 7};
  resp.sw = soe::kSwMoreData;
  ByteWriter w;
  resp.EncodeTo(&w);
  ByteReader r(w.bytes());
  auto back = soe::ApduResponse::DecodeFrom(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().sw, soe::kSwMoreData);
  EXPECT_TRUE(back.value().ok());
}

// In-memory provider over a parsed container, with optional tampering.
class TestProvider : public soe::ChunkProvider {
 public:
  explicit TestProvider(const SecureContainer* c) : container_(c) {}
  uint64_t TotalWireBytes() const override {
    uint64_t total = crypto::ContainerHeader::kWireSize;
    for (uint32_t i = 0; i < container_->header().chunk_count; ++i) {
      auto cipher = container_->ChunkCiphertext(i);
      auto auth = container_->GetChunkAuth(i);
      if (cipher.ok() && auth.ok()) {
        total += cipher.value().size() +
                 auth.value().WireBytes(container_->header().integrity);
      }
    }
    return total;
  }
  uint32_t tamper_index_ = UINT32_MAX;
  uint32_t swap_with_ok_proof_ = UINT32_MAX;
  size_t fetches_ = 0;

 protected:
  Result<std::vector<ChunkData>> FetchChunks(uint32_t first,
                                             uint32_t count) override {
    std::vector<ChunkData> chunks;
    for (uint32_t index = first; index < first + count; ++index) {
      ChunkData chunk;
      CSXA_ASSIGN_OR_RETURN(Span cipher, container_->ChunkCiphertext(index));
      chunk.ciphertext = cipher.ToBytes();
      CSXA_ASSIGN_OR_RETURN(chunk.auth, container_->GetChunkAuth(index));
      if (index == tamper_index_) chunk.ciphertext[0] ^= 0xFF;
      if (index == swap_with_ok_proof_) {
        // Substitute another chunk's ciphertext, keep this index's auth.
        auto other = container_->ChunkCiphertext(0);
        if (other.ok()) chunk.ciphertext = other.value().ToBytes();
      }
      ++fetches_;
      chunks.push_back(std::move(chunk));
    }
    return chunks;
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
  soe::ChunkSource src(doc.key, doc.header, &provider, &cost);
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
  soe::ChunkSource src(doc.key, doc.header, &provider, &cost);
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
  soe::ChunkSource src(doc.key, doc.header, &provider, &cost);
  Bytes read(2048);
  Status st = src.ReadExact(read.data(), read.size());
  EXPECT_EQ(st.code(), StatusCode::kIntegrityError);
}

TEST(ChunkSourceTest, SubstitutedChunkRejected) {
  SealedDoc doc = MakeSealed(2048, 512, 24);
  TestProvider provider(&doc.container);
  provider.swap_with_ok_proof_ = 3;
  CostModel cost(CardProfile::EGate());
  soe::ChunkSource src(doc.key, doc.header, &provider, &cost);
  Bytes read(2048);
  EXPECT_EQ(read.size(), 2048u);
  Status st = src.ReadExact(read.data(), read.size());
  EXPECT_EQ(st.code(), StatusCode::kIntegrityError);
}

TEST(ChunkSourceTest, ReadPastEndFails) {
  SealedDoc doc = MakeSealed(100, 64, 25);
  TestProvider provider(&doc.container);
  soe::ChunkSource src(doc.key, doc.header, &provider, nullptr);
  Bytes read(101);
  EXPECT_FALSE(src.ReadExact(read.data(), read.size()).ok());
}

// --- Card engine sessions -------------------------------------------------

struct EngineFixture {
  Rng rng{77};
  SymmetricKey key;
  Bytes header_bytes;
  Bytes sealed_rules;
  Bytes container_bytes;
  std::unique_ptr<SecureContainer> container;
  std::unique_ptr<TestProvider> provider;

  explicit EngineFixture(const std::string& rules_text,
                         size_t doc_elements = 400, size_t chunk_size = 512) {
    key = SymmetricKey::Generate(&rng);
    xml::GeneratorParams gp;
    gp.profile = xml::DocProfile::kHospital;
    gp.target_elements = doc_elements;
    gp.seed = 100;
    auto doc = xml::GenerateDocument(gp);
    auto encoded = skipindex::EncodeDocument(doc, {}).value();
    container_bytes = SecureContainer::Seal(key, encoded, chunk_size, &rng);
    container = std::make_unique<SecureContainer>(
        SecureContainer::Parse(container_bytes).value());
    ByteWriter hw;
    container->header().EncodeTo(&hw);
    header_bytes = hw.Take();
    auto rules = core::RuleSet::ParseText(rules_text).value();
    sealed_rules = core::SealRuleSet(key, rules, /*version=*/1, &rng);
    provider = std::make_unique<TestProvider>(container.get());
  }
};

TEST(CardEngineTest, SessionDeliversAuthorizedView) {
  EngineFixture fx("+ doctor //patient\n- doctor //admin/billing\n");
  soe::CardEngine card(CardProfile::EGate());
  card.InstallKey("doc", fx.key);
  soe::SessionOptions opts;
  opts.subject = "doctor";
  auto out = card.RunSession("doc", fx.header_bytes, fx.sealed_rules,
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
  auto out = card.RunSession("doc", fx.header_bytes, fx.sealed_rules,
                             fx.provider.get(), opts);
  EXPECT_EQ(out.status().code(), StatusCode::kNotFound);
}

TEST(CardEngineTest, TamperedRulesRejected) {
  EngineFixture fx("+ u //patient\n");
  fx.sealed_rules[20] ^= 0x01;
  soe::CardEngine card(CardProfile::EGate());
  card.InstallKey("doc", fx.key);
  soe::SessionOptions opts;
  opts.subject = "u";
  auto out = card.RunSession("doc", fx.header_bytes, fx.sealed_rules,
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
  auto a = card.RunSession("doc", fx.header_bytes, fx.sealed_rules,
                           fx.provider.get(), with_skip);
  ASSERT_TRUE(a.ok());

  soe::SessionOptions no_skip = with_skip;
  no_skip.use_skip = false;
  auto b = card.RunSession("doc", fx.header_bytes, fx.sealed_rules,
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
  auto out = card.RunSession("doc", fx.header_bytes, fx.sealed_rules,
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
  auto out = card.RunSession("doc", fx.header_bytes, fx.sealed_rules,
                             fx.provider.get(), opts);
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

TEST(CardEngineTest, RamPeakReported) {
  EngineFixture fx("+ u //patient\n", 300);
  soe::CardEngine card(CardProfile::EGate());
  card.InstallKey("doc", fx.key);
  soe::SessionOptions opts;
  opts.subject = "u";
  auto out = card.RunSession("doc", fx.header_bytes, fx.sealed_rules,
                             fx.provider.get(), opts);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out.value().stats.ram_peak, 0u);
  EXPECT_EQ(out.value().stats.ram_budget, CardProfile::EGate().ram_budget);
}

// --- Golden modeled costs -------------------------------------------------
//
// Every modeled number a card session reports, pinned for a fixed grid:
// hospital document x 3 subjects (skip-heavy accountant, negative-rule
// researcher, predicate-pending emergency) x {acute-patients query, none}
// x skip {on, off} x chunk {64, 256} B x {MAC, Merkle}. Host-side work on
// the scan loop (metering, decoding, byte sources) must leave all of them
// byte-identical, `total_seconds` down to its bit pattern. Only a
// deliberate change to the cost or RAM model may edit this table; a
// mismatch prints the row the current code produces.

struct GoldenRow {
  const char* subject;
  bool query;
  bool skip;
  uint32_t chunk;
  bool merkle;
  size_t ram_peak;
  size_t modeled_ram_peak;
  uint64_t bytes_transferred;
  uint64_t bytes_decrypted;
  uint64_t apdu_exchanges;
  uint64_t dsp_round_trips;
  uint64_t total_seconds_bits;
};

constexpr GoldenRow kGoldenSessions[] = {
    // subject, query, skip, chunk, merkle, ram_peak, evaluator peak,
    // transferred, decrypted, apdus, dsp trips, total_seconds bits
    {"accountant", false, true, 64, false, 543, 70, 12419, 6163, 107, 91, 0x4023e5deae26e8d6ull},
    {"accountant", false, false, 64, false, 558, 71, 17891, 9811, 164, 148, 0x402e13115ef28005ull},
    {"accountant", true, true, 64, false, 638, 171, 14893, 9427, 149, 142, 0x402a9a506ea1f966ull},
    {"accountant", true, false, 64, false, 638, 171, 15469, 9811, 155, 148, 0x402baf058e4839c3ull},
    {"researcher", false, true, 64, false, 595, 108, 24552, 9811, 190, 148, 0x403258266815860cull},
    {"researcher", false, false, 64, false, 595, 108, 24552, 9811, 190, 148, 0x4032596c4c9a882bull},
    {"researcher", true, true, 64, false, 990, 512, 17013, 9811, 161, 148, 0x402d3845c60c1c7bull},
    {"researcher", true, false, 64, false, 1056, 584, 17013, 9811, 161, 148, 0x402d3b11e7431bffull},
    {"emergency", false, true, 64, false, 1013, 546, 17499, 9811, 163, 148, 0x402db0523e7c0f04ull},
    {"emergency", false, false, 64, false, 1085, 618, 17499, 9811, 163, 148, 0x402db24b77916525ull},
    {"emergency", true, true, 64, false, 1091, 624, 17499, 9811, 163, 148, 0x402db2bd616b756dull},
    {"emergency", true, false, 64, false, 1164, 696, 17499, 9811, 163, 148, 0x402db4f6f2adc6d3ull},
    {"accountant", false, true, 64, true, 543, 70, 32921, 6163, 197, 91, 0x40343a227175aeabull},
    {"accountant", false, false, 64, true, 558, 71, 50939, 9811, 308, 148, 0x403f9a5bbd9ba9d4ull},
    {"accountant", true, true, 64, true, 638, 171, 46735, 9427, 288, 142, 0x403d43564423798full},
    {"accountant", true, false, 64, true, 638, 171, 48517, 9811, 299, 148, 0x403e6855d54686b2ull},
    {"researcher", false, true, 64, true, 595, 108, 57600, 9811, 334, 148, 0x4041747cbb1bf7eeull},
    {"researcher", false, false, 64, true, 595, 108, 57600, 9811, 334, 148, 0x4041751fad5e78feull},
    {"researcher", true, true, 64, true, 990, 512, 50061, 9811, 305, 148, 0x403f2cf5f128780eull},
    {"researcher", true, false, 64, true, 1056, 584, 50061, 9811, 305, 148, 0x403f2e5c01c3f7d0ull},
    {"emergency", false, true, 64, true, 1013, 546, 50547, 9811, 307, 148, 0x403f68fc2d607154ull},
    {"emergency", false, false, 64, true, 1085, 618, 50547, 9811, 307, 148, 0x403f69f8c9eb1c64ull},
    {"emergency", true, true, 64, true, 1091, 624, 50547, 9811, 307, 148, 0x403f6a31bed82488ull},
    {"emergency", true, false, 64, true, 1164, 696, 50547, 9811, 307, 148, 0x403f6b4e87794d3aull},
    {"accountant", false, true, 256, false, 735, 70, 14339, 9811, 90, 37, 0x402168aa9e8f7512ull},
    {"accountant", false, false, 256, false, 750, 71, 14339, 9811, 90, 37, 0x40216d922b83d135ull},
    {"accountant", true, true, 256, false, 830, 171, 11917, 9811, 81, 37, 0x401e0d1098e4bc8cull},
    {"accountant", true, false, 256, false, 830, 171, 11917, 9811, 81, 37, 0x401e130cb5b315e6ull},
    {"researcher", false, true, 256, false, 787, 108, 21000, 9811, 116, 37, 0x40280acd9cbc5d47ull},
    {"researcher", false, false, 256, false, 787, 108, 21000, 9811, 116, 37, 0x40280d5965c66186ull},
    {"researcher", true, true, 256, false, 1182, 512, 13461, 9811, 87, 37, 0x402092c6929d6dabull},
    {"researcher", true, false, 256, false, 1248, 584, 13461, 9811, 87, 37, 0x40209592b3d46d2full},
    {"emergency", false, true, 256, false, 1205, 546, 13947, 9811, 89, 37, 0x40210ad30b0d6034ull},
    {"emergency", false, false, 256, false, 1277, 618, 13947, 9811, 89, 37, 0x40210ccc4422b655ull},
    {"emergency", true, true, 256, false, 1283, 624, 13947, 9811, 89, 37, 0x40210d3e2dfcc69cull},
    {"emergency", true, false, 256, false, 1356, 696, 13947, 9811, 89, 37, 0x40210f77bf3f1802ull},
    {"accountant", false, true, 256, true, 735, 70, 20159, 9811, 90, 37, 0x4027250312151d10ull},
    {"accountant", false, false, 256, true, 750, 71, 20159, 9811, 90, 37, 0x402729ea9f097933ull},
    {"accountant", true, true, 256, true, 830, 171, 17737, 9811, 81, 37, 0x4024c2e0bff80645ull},
    {"accountant", true, false, 256, true, 830, 171, 17737, 9811, 81, 37, 0x4024c5dece5f32f2ull},
    {"researcher", false, true, 256, true, 787, 108, 26820, 9811, 116, 37, 0x402dc72610420544ull},
    {"researcher", false, false, 256, true, 787, 108, 26820, 9811, 116, 37, 0x402dc9b1d94c0983ull},
    {"researcher", true, true, 256, true, 1182, 512, 19281, 9811, 87, 37, 0x40264f1f062315a9ull},
    {"researcher", true, false, 256, true, 1248, 584, 19281, 9811, 87, 37, 0x402651eb275a152dull},
    {"emergency", false, true, 256, true, 1205, 546, 19767, 9811, 89, 37, 0x4026c72b7e930832ull},
    {"emergency", false, false, 256, true, 1277, 618, 19767, 9811, 89, 37, 0x4026c924b7a85e53ull},
    {"emergency", true, true, 256, true, 1283, 624, 19767, 9811, 89, 37, 0x4026c996a1826e9bull},
    {"emergency", true, false, 256, true, 1356, 696, 19767, 9811, 89, 37, 0x4026cbd032c4c001ull},
};

const char kGoldenQuery[] =
    "//patient[medical/diagnosis/severity=\"acute\"]";

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// One sealed hospital document per (chunk size, integrity mode), with the
// hospital scenario's rule set sealed under the same key.
struct GoldenDoc {
  SymmetricKey key;
  Bytes header_bytes;
  Bytes sealed_rules;
  Bytes container_bytes;  // the parsed container borrows these bytes
  std::unique_ptr<SecureContainer> container;

  GoldenDoc(uint32_t chunk, bool merkle) {
    Rng rng(4242);
    key = SymmetricKey::Generate(&rng);
    scengen::Scenario scenario = scengen::HospitalScenario();
    xml::DomDocument doc =
        scengen::MakeScenarioDocument(scenario, 600, /*seed=*/31);
    Bytes encoded = skipindex::EncodeDocument(doc, {}).value();
    container_bytes = SecureContainer::Seal(
        key, encoded, chunk, &rng,
        merkle ? crypto::IntegrityMode::kMerkle
               : crypto::IntegrityMode::kChunkMac);
    container = std::make_unique<SecureContainer>(
        SecureContainer::Parse(container_bytes).value());
    ByteWriter hw;
    container->header().EncodeTo(&hw);
    header_bytes = hw.Take();
    auto rules = core::RuleSet::ParseText(scenario.rules_text).value();
    sealed_rules = core::SealRuleSet(key, rules, /*version=*/1, &rng);
  }

  Result<soe::SessionOutput> Run(const GoldenRow& row,
                                 const CardProfile& profile,
                                 bool strict_ram) const {
    soe::CardEngine card(profile);
    card.InstallKey("doc", key);
    soe::ContainerChunkProvider provider(container.get());
    soe::SessionOptions opts;
    opts.subject = row.subject;
    if (row.query) opts.query_text = kGoldenQuery;
    opts.use_skip = row.skip;
    opts.strict_ram = strict_ram;
    return card.RunSession("doc", header_bytes, sealed_rules, &provider, opts);
  }
};

std::string FormatRow(const GoldenRow& key, const soe::SessionStats& st) {
  std::ostringstream os;
  os << "{\"" << key.subject << "\", " << (key.query ? "true" : "false")
     << ", " << (key.skip ? "true" : "false") << ", " << key.chunk << ", "
     << (key.merkle ? "true" : "false") << ", " << st.ram_peak << ", "
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
        row.chunk == key.chunk && row.merkle == key.merkle) {
      return &row;
    }
  }
  return nullptr;
}

TEST(GoldenSessionTest, ModeledCostsAreByteIdentical) {
  size_t checked = 0;
  for (uint32_t chunk : {64u, 256u}) {
    for (bool merkle : {false, true}) {
      GoldenDoc doc(chunk, merkle);
      for (const char* subject : {"accountant", "researcher", "emergency"}) {
        for (bool query : {false, true}) {
          for (bool skip : {true, false}) {
            GoldenRow key{subject, query, skip, chunk, merkle,
                          0,       0,     0,    0,     0,      0, 0};
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
  }
  EXPECT_EQ(checked, std::size(kGoldenSessions));
}

// Strict mode trips at exactly the metered peak: a budget of one byte less
// than the golden ram_peak aborts the session, the peak itself passes.
TEST(GoldenSessionTest, StrictRamFailsAtTheSameBudget) {
  GoldenRow key{"emergency", true, true, 64, false, 0, 0, 0, 0, 0, 0, 0};
  const GoldenRow* want = FindGolden(key);
  ASSERT_NE(want, nullptr);
  GoldenDoc doc(key.chunk, key.merkle);
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
