// Cross-cutting invariance property: the delivered view is a pure
// function of (document, rules, subject, query) — chunk size, integrity
// mode, skip on/off and card profile must never change it, only costs.
// The skips taken (count and bytes) are a function of the skip setting
// alone: chunking works below the decoder and must not move them.

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "common/logging.h"
#include "core/rule.h"
#include "core/rule_envelope.h"
#include "crypto/container.h"
#include "skipindex/byte_source.h"
#include "skipindex/codec.h"
#include "scengen/scenario.h"
#include "soe/card_engine.h"
#include "soe/chunk_source.h"
#include "xml/generator.h"

namespace csxa {
namespace {

// The shared in-memory container provider (batch protocol) keeps this
// suite focused on the invariance property itself.
using InMemoryProvider = soe::ContainerChunkProvider;

struct InvarianceParams {
  size_t chunk_size;
  crypto::IntegrityMode mode;
  bool use_skip;
  bool modern_card;
};

// The 500-element hospital document, encoded and sealed per `p`.
struct SealedDoc {
  Bytes encoded;
  crypto::SymmetricKey key;
  Bytes container_bytes;
};

SealedDoc Seal(const InvarianceParams& p, Rng* rng) {
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kHospital;
  gp.target_elements = 500;
  gp.seed = 2024;
  auto doc = xml::GenerateDocument(gp);
  SealedDoc out;
  out.key = crypto::SymmetricKey::Generate(rng);
  out.encoded = skipindex::EncodeDocument(doc, {}).value();
  out.container_bytes = crypto::SecureContainer::Seal(
      out.key, out.encoded, p.chunk_size, rng, p.mode);
  return out;
}

Rng RngFor(const InvarianceParams& p) {
  return Rng(p.chunk_size * 7 + static_cast<uint64_t>(p.mode) * 3 +
             (p.use_skip ? 1 : 0));
}

class ChunkingInvariance : public ::testing::TestWithParam<InvarianceParams> {};

TEST_P(ChunkingInvariance, DeliveredViewIsIdentical) {
  const InvarianceParams& p = GetParam();
  // Golden view computed once with the canonical configuration.
  static std::string* golden = nullptr;

  auto scenario = scengen::HospitalScenario();
  Rng rng = RngFor(p);
  SealedDoc sealed = Seal(p, &rng);
  auto container =
      crypto::SecureContainer::Parse(sealed.container_bytes).value();
  ByteWriter hw;
  container.header().EncodeTo(&hw);
  auto rules = core::RuleSet::ParseText(scenario.rules_text).value();
  Bytes sealed_rules =
      core::SealRuleSet(sealed.key, rules, /*version=*/1, &rng);

  soe::CardEngine card(p.modern_card ? soe::CardProfile::ModernElement()
                                     : soe::CardProfile::EGate());
  card.InstallKey("doc", sealed.key);
  InMemoryProvider provider(&container);
  soe::SessionOptions opts;
  opts.subject = "researcher";
  opts.query_text = "//treatment";
  opts.use_skip = p.use_skip;
  auto out = card.RunSession("doc", hw.bytes(), sealed_rules, &provider, opts);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  if (golden == nullptr) {
    golden = new std::string(out.value().view_xml);
    EXPECT_FALSE(golden->empty());
  } else {
    EXPECT_EQ(out.value().view_xml, *golden)
        << "chunk=" << p.chunk_size << " mode=" << static_cast<int>(p.mode)
        << " skip=" << p.use_skip;
  }

  // Golden (skips, bytes_skipped), recorded once per skip setting.
  static auto* golden_skips = new std::map<bool, std::pair<size_t, uint64_t>>;
  const soe::SessionStats& stats = out.value().stats;
  auto [it, first] = golden_skips->try_emplace(
      p.use_skip, stats.skips, stats.bytes_skipped);
  if (first) {
    EXPECT_EQ(stats.skips > 0, p.use_skip);
  } else {
    EXPECT_EQ(stats.skips, it->second.first) << "chunk=" << p.chunk_size;
    EXPECT_EQ(stats.bytes_skipped, it->second.second)
        << "chunk=" << p.chunk_size;
  }
}

// The decoder's per-element metadata, above all the subtree content sizes
// the skip index jumps by, must not depend on where chunk edges fall. A
// chunk edge can split a multi-byte varint, which the decoder then reads
// byte by byte instead of from its window; the plaintext decode has no
// edges. Every chunk size from 3 to 96 bytes moves the edges over every
// offset of the document's short, dense prefix and its larger subtrees.
TEST(ChunkingInvarianceSweep, DecoderMetadataIsIdenticalAtEveryChunkSize) {
  for (size_t chunk_size = 3; chunk_size <= 96; ++chunk_size) {
    const InvarianceParams p{chunk_size, crypto::IntegrityMode::kChunkMac,
                             true, false};
    Rng rng = RngFor(p);
    SealedDoc sealed = Seal(p, &rng);
    auto container =
        crypto::SecureContainer::Parse(sealed.container_bytes).value();
    skipindex::MemorySource plain{Span(sealed.encoded)};
    auto reference = skipindex::DocumentDecoder::Open(&plain).value();
    InMemoryProvider provider(&container);
    soe::ChunkSource chunked(sealed.key, container.header(), &provider,
                             /*cost=*/nullptr);
    auto opened = skipindex::DocumentDecoder::Open(&chunked);
    ASSERT_TRUE(opened.ok()) << "chunk=" << chunk_size;
    auto& decoder = opened.value();
    for (size_t i = 0;; ++i) {
      auto want = reference->NextView();
      auto got = decoder->NextView();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << "chunk=" << chunk_size << " event " << i
                            << ": " << got.status().ToString();
      ASSERT_TRUE(got.value() == want.value())
          << "chunk=" << chunk_size << " event " << i;
      if (want.value().type == xml::EventType::kEnd) break;
      if (want.value().type != xml::EventType::kOpen) continue;
      ASSERT_EQ(decoder->last_content_size(), reference->last_content_size())
          << "chunk=" << chunk_size << " event " << i;
      ASSERT_EQ(decoder->last_has_elements(), reference->last_has_elements());
      ASSERT_EQ(decoder->last_has_text(), reference->last_has_text());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChunkingInvariance,
    ::testing::Values(
        InvarianceParams{512, crypto::IntegrityMode::kChunkMac, true, false},
        InvarianceParams{64, crypto::IntegrityMode::kChunkMac, true, false},
        InvarianceParams{128, crypto::IntegrityMode::kChunkMac, false, false},
        InvarianceParams{256, crypto::IntegrityMode::kMerkle, true, false},
        InvarianceParams{1024, crypto::IntegrityMode::kMerkle, false, false},
        InvarianceParams{4096, crypto::IntegrityMode::kChunkMac, true, false},
        InvarianceParams{300, crypto::IntegrityMode::kChunkMac, true, false},
        InvarianceParams{512, crypto::IntegrityMode::kChunkMac, true, true},
        InvarianceParams{97, crypto::IntegrityMode::kMerkle, true, false}),
    [](const ::testing::TestParamInfo<InvarianceParams>& info) {
      const auto& p = info.param;
      std::string name = "c" + std::to_string(p.chunk_size);
      name += p.mode == crypto::IntegrityMode::kMerkle ? "_merkle" : "_mac";
      name += p.use_skip ? "_skip" : "_noskip";
      name += p.modern_card ? "_modern" : "_egate";
      return name;
    });

}  // namespace
}  // namespace csxa
