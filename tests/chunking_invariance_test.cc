// Cross-cutting invariance property: the delivered view is a pure
// function of (document, rules, subject, query) — chunk size, integrity
// mode, skip on/off and card profile must never change it, only costs.

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/rule.h"
#include "core/rule_envelope.h"
#include "crypto/container.h"
#include "skipindex/codec.h"
#include "scengen/scenario.h"
#include "soe/card_engine.h"
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

class ChunkingInvariance : public ::testing::TestWithParam<InvarianceParams> {};

TEST_P(ChunkingInvariance, DeliveredViewIsIdentical) {
  const InvarianceParams& p = GetParam();
  // Golden view computed once with the canonical configuration.
  static std::string* golden = nullptr;

  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kHospital;
  gp.target_elements = 500;
  gp.seed = 2024;
  auto doc = xml::GenerateDocument(gp);
  auto scenario = scengen::HospitalScenario();

  Rng rng(p.chunk_size * 7 + static_cast<uint64_t>(p.mode) * 3 +
          (p.use_skip ? 1 : 0));
  auto key = crypto::SymmetricKey::Generate(&rng);
  auto encoded = skipindex::EncodeDocument(doc, {}).value();
  Bytes container_bytes = crypto::SecureContainer::Seal(
      key, encoded, p.chunk_size, &rng, p.mode);
  auto container = crypto::SecureContainer::Parse(container_bytes).value();
  ByteWriter hw;
  container.header().EncodeTo(&hw);
  auto rules = core::RuleSet::ParseText(scenario.rules_text).value();
  Bytes sealed_rules = core::SealRuleSet(key, rules, /*version=*/1, &rng);

  soe::CardEngine card(p.modern_card ? soe::CardProfile::ModernElement()
                                     : soe::CardProfile::EGate());
  card.InstallKey("doc", key);
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
