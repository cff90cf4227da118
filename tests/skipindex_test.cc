// Skip-index tests: codec round-trips, recursive bitmap compression, and
// the central invariant that skipping never changes the delivered view —
// it only reduces the bytes touched.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/evaluator.h"
#include "core/ref_evaluator.h"
#include "skipindex/codec.h"
#include "skipindex/filter.h"
#include "scengen/rulegen.h"
#include "xml/generator.h"
#include "xml/writer.h"
#include "xpath/parser.h"

namespace csxa {
namespace {

using skipindex::DocumentDecoder;
using skipindex::EncodeDocument;
using skipindex::EncodeOptions;
using skipindex::EncodeStats;
using skipindex::MemorySource;

xml::DomDocument Doc(const std::string& text) {
  auto d = xml::DomDocument::Parse(text);
  EXPECT_TRUE(d.ok()) << d.status().ToString();
  return std::move(d).value();
}

// Decodes an encoded document fully back into canonical XML text.
std::string DecodeAll(Span encoded) {
  MemorySource src(encoded);
  auto dec = DocumentDecoder::Open(&src);
  EXPECT_TRUE(dec.ok()) << dec.status().ToString();
  xml::CanonicalWriter w;
  std::vector<xml::AttrView> scratch;
  for (;;) {
    auto ev = dec.value()->Next();
    EXPECT_TRUE(ev.ok()) << ev.status().ToString();
    if (!ev.ok()) return "";
    if (ev.value().type == xml::EventType::kEnd) break;
    EXPECT_TRUE(w.OnEventView(xml::ViewOf(ev.value(), &scratch)).ok());
  }
  EXPECT_TRUE(w.complete());
  return w.str();
}

TEST(CodecTest, RoundTripsSimpleDocument) {
  auto doc = Doc("<a x=\"1\"><b>hello</b><c/></a>");
  auto enc = EncodeDocument(doc, EncodeOptions{});
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(DecodeAll(enc.value()), doc.Serialize());
}

TEST(CodecTest, RoundTripsWithoutIndex) {
  auto doc = Doc("<a><b>x</b><b>y</b></a>");
  EncodeOptions opt;
  opt.with_index = false;
  auto enc = EncodeDocument(doc, opt);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(DecodeAll(enc.value()), doc.Serialize());
}

TEST(CodecTest, RoundTripsNonRecursiveBitmaps) {
  auto doc = Doc("<a><b><c>1</c></b><d/></a>");
  EncodeOptions opt;
  opt.recursive_bitmaps = false;
  auto enc = EncodeDocument(doc, opt);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(DecodeAll(enc.value()), doc.Serialize());
}

TEST(CodecTest, RoundTripsGeneratedProfiles) {
  for (auto profile :
       {xml::DocProfile::kAgenda, xml::DocProfile::kHospital,
        xml::DocProfile::kNewsFeed, xml::DocProfile::kRandom}) {
    xml::GeneratorParams gp;
    gp.profile = profile;
    gp.target_elements = 300;
    gp.seed = 42;
    auto doc = xml::GenerateDocument(gp);
    auto enc = EncodeDocument(doc, EncodeOptions{});
    ASSERT_TRUE(enc.ok());
    EXPECT_EQ(DecodeAll(enc.value()), doc.Serialize())
        << xml::DocProfileName(profile);
  }
}

TEST(CodecTest, RejectsGarbage) {
  Bytes junk = {0x42, 0x00, 0x01};
  MemorySource src(junk);
  EXPECT_FALSE(DocumentDecoder::Open(&src).ok());
}

TEST(CodecTest, RejectsTruncatedStream) {
  auto doc = Doc("<a><b>hello world</b></a>");
  auto enc = EncodeDocument(doc, EncodeOptions{}).value();
  Bytes cut(enc.begin(), enc.begin() + static_cast<long>(enc.size() / 2));
  MemorySource src(cut);
  auto dec = DocumentDecoder::Open(&src);
  if (!dec.ok()) return;  // truncation in the header is fine too
  Status st = Status::OK();
  for (;;) {
    auto ev = dec.value()->Next();
    if (!ev.ok()) {
      st = ev.status();
      break;
    }
    if (ev.value().type == xml::EventType::kEnd) break;
  }
  EXPECT_FALSE(st.ok());
}

TEST(CodecTest, RecursiveBitmapsAreSmaller) {
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kHospital;
  gp.target_elements = 800;
  auto doc = xml::GenerateDocument(gp);
  EncodeStats rec_stats, flat_stats;
  EncodeOptions rec;
  auto e1 = EncodeDocument(doc, rec, &rec_stats);
  ASSERT_TRUE(e1.ok());
  EncodeOptions flat;
  flat.recursive_bitmaps = false;
  auto e2 = EncodeDocument(doc, flat, &flat_stats);
  ASSERT_TRUE(e2.ok());
  EXPECT_LT(rec_stats.index_bitmap_bytes, flat_stats.index_bitmap_bytes);
}

TEST(CodecTest, StatsBreakdownAddsUp) {
  auto doc = Doc("<a><b>text</b></a>");
  EncodeStats stats;
  auto enc = EncodeDocument(doc, EncodeOptions{}, &stats);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(stats.total_bytes, enc.value().size());
  EXPECT_EQ(stats.element_count, 2u);
  EXPECT_GT(stats.dict_bytes, 0u);
  EXPECT_GT(stats.text_bytes, 0u);
  EXPECT_GT(stats.index_size_bytes, 0u);
}

TEST(CodecTest, SkipContentLandsOnClose) {
  auto doc = Doc("<a><big><x>1</x><y>2</y></big><after>3</after></a>");
  auto enc = EncodeDocument(doc, EncodeOptions{}).value();
  MemorySource src(enc);
  auto dec = DocumentDecoder::Open(&src).value();
  // a
  ASSERT_EQ(dec->Next().value().type, xml::EventType::kOpen);
  // big
  auto big = dec->Next().value();
  ASSERT_EQ(big.name, "big");
  EXPECT_TRUE(dec->SubtreeHasTag("x"));
  EXPECT_TRUE(dec->SubtreeHasTag("y"));
  EXPECT_FALSE(dec->SubtreeHasTag("after"));
  ASSERT_TRUE(dec->SkipContent().ok());
  auto close_big = dec->Next().value();
  EXPECT_EQ(close_big.type, xml::EventType::kClose);
  EXPECT_EQ(close_big.name, "big");
  auto after = dec->Next().value();
  EXPECT_EQ(after.type, xml::EventType::kOpen);
  EXPECT_EQ(after.name, "after");
}

TEST(CodecTest, SkipRequiresJustOpened) {
  auto doc = Doc("<a><b>1</b></a>");
  auto enc = EncodeDocument(doc, EncodeOptions{}).value();
  MemorySource src(enc);
  auto dec = DocumentDecoder::Open(&src).value();
  ASSERT_EQ(dec->Next().value().name, "a");
  ASSERT_EQ(dec->Next().value().name, "b");
  ASSERT_EQ(dec->Next().value().type, xml::EventType::kValue);
  EXPECT_FALSE(dec->SkipContent().ok());
}

// --- The invariant: filtering with skips == filtering without ------------

struct SkipInvariantParams {
  xml::DocProfile profile;
  size_t doc_elements;
  size_t num_rules;
  double predicate_prob;
  bool with_query;
  uint64_t seed_base;
  int iterations;
};

class SkipInvariant : public ::testing::TestWithParam<SkipInvariantParams> {};

TEST_P(SkipInvariant, SkippingNeverChangesOutput) {
  const auto& p = GetParam();
  for (int iter = 0; iter < p.iterations; ++iter) {
    uint64_t seed = p.seed_base + static_cast<uint64_t>(iter);
    xml::GeneratorParams gp;
    gp.profile = p.profile;
    gp.target_elements = p.doc_elements;
    gp.seed = seed;
    auto doc = xml::GenerateDocument(gp);
    Rng rng(seed * 31 + 7);
    scengen::RuleGenParams rp;
    rp.num_rules = p.num_rules;
    rp.path.predicate_prob = p.predicate_prob;
    auto rules = scengen::GenerateRules(doc, "u", rp, &rng);

    xpath::PathExpr qexpr;
    const xpath::PathExpr* qptr = nullptr;
    if (p.with_query) {
      auto tags = scengen::CollectTags(doc);
      auto values = scengen::CollectValues(doc);
      scengen::PathGenParams qp;
      std::string qtext = scengen::GeneratePathText(tags, values, qp, &rng);
      qexpr = xpath::ParsePath(qtext).value();
      qptr = &qexpr;
    }

    auto enc = EncodeDocument(doc, EncodeOptions{}).value();

    auto run = [&](bool enable_skip, skipindex::FilterStats* fstats,
                   std::string* out_text) {
      MemorySource src(enc);
      auto dec = DocumentDecoder::Open(&src).value();
      xml::CanonicalWriter w;
      auto ev = core::StreamingEvaluator::Create(rules.ForSubject("u"), qptr,
                                                 &w)
                    .value();
      skipindex::FilterOptions fo;
      fo.enable_skip = enable_skip;
      Status st = skipindex::RunFiltered(dec.get(), ev.get(), fo, fstats);
      ASSERT_TRUE(st.ok()) << st.ToString() << " seed=" << seed;
      *out_text = w.str();
    };

    skipindex::FilterStats with_skip, without_skip;
    std::string v1, v2;
    run(true, &with_skip, &v1);
    run(false, &without_skip, &v2);
    EXPECT_EQ(v1, v2) << "seed=" << seed << "\nrules:\n" << rules.ToText();
    EXPECT_EQ(without_skip.skips, 0u);

    // And both agree with the DOM oracle.
    auto ref = core::BuildAuthorizedView(doc, rules.ForSubject("u"), qptr);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(v1, ref.value().Serialize()) << "seed=" << seed;
    if (::testing::Test::HasFailure()) break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, SkipInvariant,
    ::testing::Values(
        SkipInvariantParams{xml::DocProfile::kRandom, 80, 5, 0.0, false, 100,
                            30},
        SkipInvariantParams{xml::DocProfile::kRandom, 80, 5, 0.5, false, 200,
                            30},
        SkipInvariantParams{xml::DocProfile::kRandom, 100, 6, 0.4, true, 300,
                            30},
        SkipInvariantParams{xml::DocProfile::kAgenda, 200, 6, 0.3, true, 400,
                            10},
        SkipInvariantParams{xml::DocProfile::kHospital, 200, 8, 0.3, true, 500,
                            10},
        SkipInvariantParams{xml::DocProfile::kNewsFeed, 200, 6, 0.3, true, 600,
                            10}),
    [](const ::testing::TestParamInfo<SkipInvariantParams>& info) {
      const auto& p = info.param;
      std::string name = xml::DocProfileName(p.profile);
      name += "_s" + std::to_string(p.seed_base);
      return name;
    });

// Skips must actually fire when access is selective.
TEST(SkipEffectiveness, SelectiveRulesSkipBytes) {
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kHospital;
  gp.target_elements = 1500;
  gp.seed = 9;
  auto doc = xml::GenerateDocument(gp);
  auto rules =
      core::RuleSet::ParseText("+ u //patient/admin\n").value();
  auto enc = EncodeDocument(doc, EncodeOptions{}).value();
  MemorySource src(enc);
  auto dec = DocumentDecoder::Open(&src).value();
  xml::CanonicalWriter w;
  auto ev =
      core::StreamingEvaluator::Create(rules.ForSubject("u"), nullptr, &w)
          .value();
  skipindex::FilterStats stats;
  ASSERT_TRUE(
      skipindex::RunFiltered(dec.get(), ev.get(), {}, &stats).ok());
  EXPECT_GT(stats.skips, 0u);
  EXPECT_GT(stats.bytes_skipped, enc.size() / 20);
}

}  // namespace
}  // namespace csxa
