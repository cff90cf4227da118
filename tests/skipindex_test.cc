// Skip-index tests: codec round-trips, recursive bitmap compression, and
// the central invariant that skipping never changes the delivered view —
// it only reduces the bytes touched.

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "common/hex.h"
#include "common/random.h"
#include "core/evaluator.h"
#include "core/ref_evaluator.h"
#include "crypto/sha256.h"
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
  for (;;) {
    auto ev = dec.value()->NextView();
    EXPECT_TRUE(ev.ok()) << ev.status().ToString();
    if (!ev.ok()) return "";
    if (ev.value().type == xml::EventType::kEnd) break;
    EXPECT_TRUE(w.OnEventView(ev.value()).ok());
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
    auto ev = dec.value()->NextView();
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
  ASSERT_EQ(dec->NextView().value().type, xml::EventType::kOpen);
  // big
  auto big = dec->NextView().value().Materialize();
  ASSERT_EQ(big.name, "big");
  EXPECT_TRUE(dec->SubtreeHasTag("x"));
  EXPECT_TRUE(dec->SubtreeHasTag("y"));
  EXPECT_FALSE(dec->SubtreeHasTag("after"));
  ASSERT_TRUE(dec->SkipContent().ok());
  auto close_big = dec->NextView().value().Materialize();
  EXPECT_EQ(close_big.type, xml::EventType::kClose);
  EXPECT_EQ(close_big.name, "big");
  auto after = dec->NextView().value().Materialize();
  EXPECT_EQ(after.type, xml::EventType::kOpen);
  EXPECT_EQ(after.name, "after");
}

TEST(CodecTest, SkipRequiresJustOpened) {
  auto doc = Doc("<a><b>1</b></a>");
  auto enc = EncodeDocument(doc, EncodeOptions{}).value();
  MemorySource src(enc);
  auto dec = DocumentDecoder::Open(&src).value();
  ASSERT_EQ(dec->NextView().value().name, "a");
  ASSERT_EQ(dec->NextView().value().name, "b");
  ASSERT_EQ(dec->NextView().value().type, xml::EventType::kValue);
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


// --- Golden encodings: the format pinned byte for byte -------------------
//
// SHA-256 of the encoded bytes plus every EncodeStats field, for three
// documents under all four option pairs. The documents between them cover
// deep recursive bitmaps (a folder_depth-4 hospital folder), a dictionary
// of more than 64 tags (random tags over a 150-word vocabulary) and
// 3-byte content_size and text-length varints next to attributes, empty
// elements and text-only elements.

xml::DomDocument GoldenDocument(const std::string& name) {
  xml::GeneratorParams gp;
  if (name == "hospital") {
    gp.profile = xml::DocProfile::kHospital;
    gp.target_elements = 2000;
    gp.folder_depth = 4;
    gp.seed = 2005;
    return xml::GenerateDocument(gp);
  }
  if (name == "random150") {
    gp.profile = xml::DocProfile::kRandom;
    gp.target_elements = 1500;
    gp.vocabulary = 150;
    gp.seed = 64;
    return xml::GenerateDocument(gp);
  }
  // "large": an element whose content is well over 16 KiB.
  Rng rng(16384);
  auto root = xml::DomNode::Element("archive",
                                    {{"owner", "ward-7"}, {"blank", ""}});
  root->AddElement("empty");
  root->AddElement("flagged", {{"level", "high"}});
  root->AddElement("note")->AddText("text only");
  xml::DomNode* blob =
      root->AddElement("blob", {{"id", "b1"}, {"codec", "raw"}});
  for (int i = 0; i < 160; ++i) {
    xml::DomNode* entry = blob->AddElement("entry", {{"n", std::to_string(i)}});
    entry->AddText(rng.Ident(96));
    if (i % 16 == 0) entry->AddElement("mark");
  }
  blob->AddText(std::string(20000, 'x'));
  root->AddElement("tail")->AddText("end");
  return xml::DomDocument(std::move(root));
}

struct GoldenEncoding {
  const char* doc;
  bool with_index;
  bool recursive;
  const char* sha256;
  EncodeStats stats;
};

// Each failing row prints the row the current encoder produces.
constexpr GoldenEncoding kGoldenEncodings[] = {
    {"hospital", true, true,
     "3dfb88f08c6367178a7cddfa483bb072b2032f7aaf5931d3ddc1d4d4eae06d55",
     {57663, 189, 15367, 33002, 6907, 2196, 3131}},
    {"hospital", true, false,
     "3eb239ba1ca137fc8697923f5382b8796a020375d396b239fc92b04e72e5d1ec",
     {59194, 189, 15367, 33002, 6908, 3726, 3131}},
    {"hospital", false, true,
     "724da87804e67d774cb7552232e69b705f726b8dc2c32371a5b77866bafad8ff",
     {48560, 189, 15367, 33002, 0, 0, 3131}},
    {"hospital", false, false,
     "4c4b8c4ca4e5374fd150b5e6e80c1b1db8271123f84d656262425f9636de284f",
     {48560, 189, 15367, 33002, 0, 0, 3131}},
    {"random150", true, true,
     "e289317c1c44e9e2490b3281977f510afdb22d02d60b50173101ae72d13d340d",
     {17197, 643, 6191, 4085, 3071, 3205, 1500}},
    {"random150", true, false,
     "176a94521f3471f49ba432cdef45c6170beb1dea95f853f23750d3590a598ac5",
     {26588, 643, 6191, 4085, 3146, 12521, 1500}},
    {"random150", false, true,
     "90be0769445032446a3086ca88099e23dace7a797ec6638789ee86523d692768",
     {10921, 643, 6191, 4085, 0, 0, 1500}},
    {"random150", false, false,
     "d091f3fe04b5938d78e8e6ec8beddf6a47dd0988996ee97949204355bd8dd3d6",
     {10921, 643, 6191, 4085, 0, 0, 1500}},
    {"large", true, true,
     "33f99f0186afea65781a0cd851676550213d4fefdb1c45489c746c2938a60b44",
     {37568, 79, 1419, 35700, 356, 12, 176}},
    {"large", true, false,
     "97759eba1665e2f29d3f46745cad4371ba576111a56a6bdfff4079878077af2c",
     {37568, 79, 1419, 35700, 356, 12, 176}},
    {"large", false, true,
     "28efb4a155f88372f77973932aba50ce2a81542f7351165c1e4c42b23e956999",
     {37200, 79, 1419, 35700, 0, 0, 176}},
    {"large", false, false,
     "fa10a72e5deb852f114bb1bfc25f5bd75a2fce3801ca5e1612cbcbd54e7c49a8",
     {37200, 79, 1419, 35700, 0, 0, 176}},
};

TEST(GoldenEncodingTest, EncodedBytesAndStatsArePinned) {
  for (const GoldenEncoding& g : kGoldenEncodings) {
    xml::DomDocument doc = GoldenDocument(g.doc);
    EncodeOptions opt;
    opt.with_index = g.with_index;
    opt.recursive_bitmaps = g.recursive;
    EncodeStats s;
    auto enc = EncodeDocument(doc, opt, &s);
    ASSERT_TRUE(enc.ok()) << enc.status().ToString();
    crypto::Digest d = crypto::Sha256::Hash(enc.value());
    std::string sha = HexEncode(Span(d.data(), d.size()));
    std::string row = "{\"" + std::string(g.doc) + "\", " +
                      (g.with_index ? "true" : "false") + ", " +
                      (g.recursive ? "true" : "false") + ", \"" + sha +
                      "\", {" + std::to_string(s.total_bytes) + ", " +
                      std::to_string(s.dict_bytes) + ", " +
                      std::to_string(s.structure_bytes) + ", " +
                      std::to_string(s.text_bytes) + ", " +
                      std::to_string(s.index_size_bytes) + ", " +
                      std::to_string(s.index_bitmap_bytes) + ", " +
                      std::to_string(s.element_count) + "}},";
    EXPECT_EQ(sha, g.sha256) << row;
    EXPECT_EQ(s.total_bytes, g.stats.total_bytes) << row;
    EXPECT_EQ(s.dict_bytes, g.stats.dict_bytes) << row;
    EXPECT_EQ(s.structure_bytes, g.stats.structure_bytes) << row;
    EXPECT_EQ(s.text_bytes, g.stats.text_bytes) << row;
    EXPECT_EQ(s.index_size_bytes, g.stats.index_size_bytes) << row;
    EXPECT_EQ(s.index_bitmap_bytes, g.stats.index_bitmap_bytes) << row;
    EXPECT_EQ(s.element_count, g.stats.element_count) << row;
    EXPECT_EQ(DecodeAll(enc.value()), doc.Serialize()) << row;
  }
}

TEST(GoldenEncodingTest, DocumentsCoverWideBitmapsAndLongVarints) {
  Bytes random = EncodeDocument(GoldenDocument("random150"), {}).value();
  MemorySource random_src(random);
  auto dec = DocumentDecoder::Open(&random_src).value();
  EXPECT_GT(dec->tags().size(), 128u);  // tag sets span three 64-bit words

  Bytes large = EncodeDocument(GoldenDocument("large"), {}).value();
  MemorySource large_src(large);
  dec = DocumentDecoder::Open(&large_src).value();
  uint64_t blob_size = 0;
  for (;;) {
    auto ev = dec->NextView();
    ASSERT_TRUE(ev.ok()) << ev.status().ToString();
    if (ev.value().type == xml::EventType::kEnd) break;
    if (ev.value().type == xml::EventType::kOpen &&
        ev.value().name == "blob") {
      blob_size = dec->last_content_size();
    }
  }
  EXPECT_GE(blob_size, 16384u);  // a 3-byte content_size varint
}

// --- Decoder reuse ---------------------------------------------------------

// Decodes what is left of `dec`'s document into canonical XML text,
// checking the decoder's running modeled size against a recount at every
// event.
std::string DecodeRest(DocumentDecoder* dec) {
  xml::CanonicalWriter w;
  for (;;) {
    auto ev = dec->NextView();
    EXPECT_TRUE(ev.ok()) << ev.status().ToString();
    if (!ev.ok()) return "";
    EXPECT_EQ(dec->RecountModeledBytes(), dec->ModeledBytes());
    if (ev.value().type == xml::EventType::kEnd) break;
    EXPECT_TRUE(w.OnEventView(ev.value()).ok());
  }
  EXPECT_TRUE(w.complete());
  return w.str();
}

std::vector<std::string> Names(const Interner& dict) {
  std::vector<std::string> out;
  for (TagId i = 0; i < dict.size(); ++i) out.push_back(dict.Name(i));
  return out;
}

// One decoder reopened over documents whose dictionary is the same, as
// large with other names, or larger: each decodes as a new decoder does,
// and the dictionaries are kept exactly when their names are unchanged.
TEST(DecoderReuseTest, ReopenDecodesAsANewDecoder) {
  const std::string base =
      "<folder><patient id=\"1\"><name>Ann</name><diag sev=\"acute\">flu"
      "</diag></patient><patient id=\"2\"><name>Bob</name></patient>"
      "</folder>";
  const std::string same =
      "<folder><patient id=\"3\"><name>Cy</name><diag sev=\"mild\">cough"
      "</diag></patient></folder>";
  const std::string renamed =
      "<record><person key=\"1\"><label>Ann</label><note lvl=\"acute\">flu"
      "</note></person></record>";
  const std::string larger =
      "<folder><patient id=\"1\" ward=\"B\"><name>Ann</name><diag "
      "sev=\"acute\">flu</diag><admin><billing>10</billing></admin>"
      "</patient></folder>";
  std::vector<Bytes> encoded;
  for (const std::string* text : {&base, &same, &renamed, &larger}) {
    encoded.push_back(EncodeDocument(Doc(*text), EncodeOptions{}).value());
  }
  const std::string* texts[] = {&base, &same, &renamed, &larger};

  MemorySource first(encoded[0]);
  auto dec = DocumentDecoder::Open(&first).value();
  EXPECT_EQ(DecodeRest(dec.get()), Doc(base).Serialize());
  for (int k : {1, 0, 2, 0, 3, 0, 2, 2}) {
    SCOPED_TRACE(*texts[k]);
    const std::vector<std::string> tags_before = Names(dec->tags());
    const std::vector<std::string> attrs_before = Names(dec->attrs());
    const std::string* tag0 = &dec->tags().Name(0);
    const std::string* attr0 = &dec->attrs().Name(0);
    MemorySource src(encoded[k]);
    ASSERT_TRUE(dec->Reopen(&src).ok());
    EXPECT_EQ(dec->RecountModeledBytes(), dec->ModeledBytes());
    MemorySource fresh_src(encoded[k]);
    auto fresh = DocumentDecoder::Open(&fresh_src).value();
    EXPECT_EQ(Names(dec->tags()), Names(fresh->tags()));
    EXPECT_EQ(Names(dec->attrs()), Names(fresh->attrs()));
    EXPECT_EQ(dec->ModeledBytes(), fresh->ModeledBytes());
    // An unchanged dictionary is the same table, names and all.
    if (Names(fresh->tags()) == tags_before) {
      EXPECT_EQ(&dec->tags().Name(0), tag0);
    }
    if (Names(fresh->attrs()) == attrs_before) {
      EXPECT_EQ(&dec->attrs().Name(0), attr0);
    }
    EXPECT_EQ(DecodeRest(dec.get()), Doc(*texts[k]).Serialize());
  }
}

// A document that fails part-way, or a header that fails, leaves nothing
// behind for the next Reopen.
TEST(DecoderReuseTest, FailureDoesNotReachTheNextDocument) {
  Bytes whole = EncodeDocument(Doc("<a x=\"1\"><b>hello</b><c><b>w</b></c>"
                                   "</a>"),
                               EncodeOptions{})
                    .value();
  Bytes other =
      EncodeDocument(Doc("<p><q y=\"2\">z</q></p>"), EncodeOptions{})
          .value();
  MemorySource src(whole);
  auto dec = DocumentDecoder::Open(&src).value();
  // Stop inside the document, with elements open.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(dec->NextView().ok());
  Bytes cut(whole.begin(), whole.end() - 3);
  MemorySource cut_src(cut);
  ASSERT_TRUE(dec->Reopen(&cut_src).ok());
  Status st = Status::OK();
  for (;;) {
    auto ev = dec->NextView();
    if (!ev.ok()) {
      st = ev.status();
      break;
    }
    if (ev.value().type == xml::EventType::kEnd) break;
  }
  EXPECT_FALSE(st.ok());

  MemorySource other_src(other);
  ASSERT_TRUE(dec->Reopen(&other_src).ok());
  EXPECT_EQ(dec->RecountModeledBytes(), dec->ModeledBytes());
  EXPECT_EQ(DecodeRest(dec.get()), Doc("<p><q y=\"2\">z</q></p>").Serialize());

  // A failed Reopen yields no event; the next good one decodes in full.
  Bytes junk = {0x42, 0x00, 0x01};
  MemorySource junk_src(junk);
  EXPECT_FALSE(dec->Reopen(&junk_src).ok());
  auto end = dec->NextView();
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(end.value().type, xml::EventType::kEnd);
  MemorySource again(whole);
  ASSERT_TRUE(dec->Reopen(&again).ok());
  EXPECT_EQ(dec->RecountModeledBytes(), dec->ModeledBytes());
  EXPECT_EQ(DecodeRest(dec.get()),
            Doc("<a x=\"1\"><b>hello</b><c><b>w</b></c></a>").Serialize());
}

// A header that fails inside the attribute dictionary, after the tag
// dictionary was read in full, leaves nothing behind either: the next
// Reopen decodes its document in full, whichever document that is.
TEST(DecoderReuseTest, HeaderFailingInsideAttributeDictionary) {
  const std::string whole_text = "<a x=\"1\"><b>hello</b><c><b>w</b></c></a>";
  const std::string other_text = "<p><q y=\"2\" zz=\"3\">z</q></p>";
  Bytes whole = EncodeDocument(Doc(whole_text), EncodeOptions{}).value();
  Bytes other = EncodeDocument(Doc(other_text), EncodeOptions{}).value();
  // Magic, flags, then each dictionary as a count and length-prefixed
  // names; every count and length here fits in a one-byte varint.
  MemorySource probe(other);
  auto reference = DocumentDecoder::Open(&probe).value();
  size_t attr_begin = 2 + 1;
  for (const std::string& name : Names(reference->tags())) {
    attr_begin += 1 + name.size();
  }
  size_t attr_end = attr_begin + 1;
  for (const std::string& name : Names(reference->attrs())) {
    attr_end += 1 + name.size();
  }
  ASSERT_EQ(Names(reference->attrs()).size(), 2u);

  MemorySource src(whole);
  auto dec = DocumentDecoder::Open(&src).value();
  for (size_t cut = attr_begin; cut < attr_end; ++cut) {
    SCOPED_TRACE(cut);
    Bytes head(other.begin(), other.begin() + cut);
    MemorySource head_src(head);
    EXPECT_FALSE(dec->Reopen(&head_src).ok());
    auto end = dec->NextView();
    ASSERT_TRUE(end.ok());
    EXPECT_EQ(end.value().type, xml::EventType::kEnd);
    const Bytes& next = cut % 2 == 0 ? whole : other;
    MemorySource next_src(next);
    ASSERT_TRUE(dec->Reopen(&next_src).ok());
    EXPECT_EQ(dec->RecountModeledBytes(), dec->ModeledBytes());
    EXPECT_EQ(DecodeRest(dec.get()),
              Doc(cut % 2 == 0 ? whole_text : other_text).Serialize());
  }
}

// The encoder works on a few flat arrays and writes one pre-sized buffer:
// its allocation count depends on the dictionaries, not on the element
// count.
TEST(EncoderAllocTest, FolderEncodesInFewAllocations) {
  xml::DomDocument doc = GoldenDocument("hospital");
  EncodeStats stats;
  Result<Bytes> enc = Status::Internal("not run");
  size_t allocations = CountAllocations(
      [&] { enc = EncodeDocument(doc, EncodeOptions{}, &stats); });
  ASSERT_TRUE(enc.ok()) << enc.status().ToString();
  EXPECT_GE(stats.element_count, 3000u);
  EXPECT_LT(allocations, 128u);
}

}  // namespace
}  // namespace csxa
