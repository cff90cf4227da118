// Robustness suite: mutation fuzzing of every parser/decoder boundary in
// the system. Invariant: malformed input must yield a clean Status (or a
// correct parse), never a crash, hang or silent wrong answer.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/random.h"
#include "core/evaluator.h"
#include "core/ref_evaluator.h"
#include "core/rule.h"
#include "crypto/container.h"
#include "skipindex/codec.h"
#include "skipindex/filter.h"
#include "soe/apdu.h"
#include "soe/chunk_source.h"
#include "soe/prefetch.h"
#include "xml/generator.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xpath/parser.h"

namespace csxa {
namespace {

// Every randomized loop below seeds from this fixed constant (plus a
// per-test salt), so default runs are byte-for-byte reproducible. Set
// CSXA_FUZZ_SEED to explore other seed universes; the effective seed is
// attached to every failure via SCOPED_TRACE, so a report reproduces with
//   CSXA_FUZZ_SEED=<seed> ./fuzz_robustness_test
constexpr uint64_t kDefaultFuzzSeed = 20260729;

uint64_t FuzzSeed() {
  static const uint64_t seed = [] {
    const char* v = std::getenv("CSXA_FUZZ_SEED");
    return (v != nullptr && *v != '\0') ? std::strtoull(v, nullptr, 10)
                                        : kDefaultFuzzSeed;
  }();
  return seed;
}

std::string SeedTrace(uint64_t salt) {
  return "fuzz seed=" + std::to_string(FuzzSeed()) + " salt=" +
         std::to_string(salt) +
         " (reproduce: CSXA_FUZZ_SEED=" + std::to_string(FuzzSeed()) +
         " ./fuzz_robustness_test)";
}

// --- XML parser fuzz --------------------------------------------------------

TEST(FuzzTest, XmlParserSurvivesMutations) {
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kAgenda;
  gp.target_elements = 60;
  gp.seed = FuzzSeed() + 1;
  SCOPED_TRACE(SeedTrace(1));
  std::string base = xml::GenerateDocument(gp).Serialize();
  Rng rng(FuzzSeed() + 2);
  for (int iter = 0; iter < 300; ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    std::string mutated = base;
    size_t edits = 1 + rng.Uniform(4);
    for (size_t e = 0; e < edits; ++e) {
      size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.Uniform(256));
          break;
        case 1:
          mutated.erase(pos, 1 + rng.Uniform(5));
          break;
        case 2:
          mutated.insert(pos, std::string(1 + rng.Uniform(3),
                                          static_cast<char>('<' + rng.Uniform(4))));
          break;
      }
      if (mutated.empty()) mutated = "<";
    }
    // Must terminate with either a parse error or a consistent DOM.
    auto doc = xml::DomDocument::Parse(mutated);
    if (doc.ok()) {
      auto reparsed = xml::DomDocument::Parse(doc.value().Serialize());
      ASSERT_TRUE(reparsed.ok()) << "roundtrip failed on accepted input";
      EXPECT_EQ(reparsed.value().Serialize(), doc.value().Serialize());
    }
  }
}

TEST(FuzzTest, XmlParserSurvivesTruncations) {
  std::string base = "<a x=\"1\"><b>text &amp; more</b><![CDATA[raw]]></a>";
  for (size_t cut = 0; cut < base.size(); ++cut) {
    auto doc = xml::DomDocument::Parse(base.substr(0, cut));
    // Every strict prefix is malformed for this document.
    EXPECT_FALSE(doc.ok()) << "prefix length " << cut;
  }
}

// --- XPath parser fuzz ------------------------------------------------------

TEST(FuzzTest, XPathParserSurvivesRandomStrings) {
  SCOPED_TRACE(SeedTrace(3));
  Rng rng(FuzzSeed() + 3);
  const char kChars[] = "/ab*[]=\"'<>!.0 @()";
  for (int iter = 0; iter < 1000; ++iter) {
    std::string s;
    size_t len = 1 + rng.Uniform(24);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(kChars[rng.Uniform(sizeof(kChars) - 1)]);
    }
    auto expr = xpath::ParsePath(s);
    if (expr.ok()) {
      // Accepted expressions must round-trip through the printer.
      std::string printed = xpath::ToString(expr.value());
      auto again = xpath::ParsePath(printed);
      ASSERT_TRUE(again.ok()) << s << " -> " << printed;
      EXPECT_EQ(xpath::ToString(again.value()), printed);
    }
  }
}

// --- Document codec fuzz ----------------------------------------------------
//
// Each input is decoded through a MemorySource (whose byte window is the
// whole buffer) and through ChunkSources at chunk sizes 7, 13 and 64, whose
// windows end every few bytes: tokens, varints, strings and subtree bitmaps
// then straddle window edges and take the decoder's fallback reads. Both
// must stop cleanly and agree event for event, skip-index metadata
// included.

// Skip-index metadata of one OPEN: content size, subtree flags, and the
// subtree tag set as a mask over the first 64 dictionary ids.
struct OpenMeta {
  uint64_t content_size = 0;
  bool has_elements = false;
  bool has_text = false;
  uint64_t tag_mask = 0;
  bool operator==(const OpenMeta&) const = default;
};

struct DecodeTrace {
  std::vector<xml::Event> events;
  std::vector<OpenMeta> opens;
  Status status = Status::OK();  // first error, or OK at kEnd
};

DecodeTrace DrainDecoder(skipindex::ByteSource* source, int max_events) {
  DecodeTrace trace;
  auto dec = skipindex::DocumentDecoder::Open(source);
  if (!dec.ok()) {
    trace.status = dec.status();
    return trace;
  }
  for (int events = 0; events < max_events; ++events) {
    auto ev = dec.value()->Next();
    if (!ev.ok()) {
      trace.status = ev.status();
      break;
    }
    if (ev.value().type == xml::EventType::kEnd) break;
    if (ev.value().type == xml::EventType::kOpen) {
      const skipindex::DocumentDecoder& d = *dec.value();
      OpenMeta meta{d.last_content_size(), d.last_has_elements(),
                    d.last_has_text(), 0};
      for (TagId id = 0; id < d.tags().size() && id < 64; ++id) {
        if (d.SubtreeHasTag(d.tags().Name(id))) {
          meta.tag_mask |= uint64_t{1} << id;
        }
      }
      trace.opens.push_back(meta);
    }
    trace.events.push_back(std::move(ev).value());
  }
  return trace;
}

// `plain` sealed at `chunk` bytes and decoded through a ChunkSource.
DecodeTrace DrainSealed(Span plain, size_t chunk, int max_events) {
  Rng rng(chunk);
  auto key = crypto::SymmetricKey::Generate(&rng);
  Bytes sealed = crypto::SecureContainer::Seal(key, plain, chunk, &rng);
  auto container = crypto::SecureContainer::Parse(sealed);
  EXPECT_TRUE(container.ok()) << container.status().ToString();
  if (!container.ok()) return {};
  soe::ContainerChunkProvider provider(&container.value());
  soe::ChunkSource source(key, container.value().header(), &provider,
                          nullptr);
  return DrainDecoder(&source, max_events);
}

// Decodes `plain` through every source and checks they agree.
void ExpectSourcesAgree(const Bytes& plain, int max_events,
                        const std::string& what) {
  skipindex::MemorySource memory(plain);
  DecodeTrace want = DrainDecoder(&memory, max_events);
  for (size_t chunk : {7u, 13u, 64u}) {
    DecodeTrace got = DrainSealed(plain, chunk, max_events);
    EXPECT_EQ(got.events, want.events) << what << " chunk=" << chunk;
    EXPECT_TRUE(got.opens == want.opens) << what << " chunk=" << chunk;
    EXPECT_EQ(got.status.code(), want.status.code())
        << what << " chunk=" << chunk << ": " << got.status.ToString()
        << " vs " << want.status.ToString();
  }
}

TEST(FuzzTest, DocumentDecoderSurvivesMutations) {
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kHospital;
  gp.target_elements = 80;
  gp.seed = FuzzSeed() + 4;
  SCOPED_TRACE(SeedTrace(4));
  auto doc = xml::GenerateDocument(gp);
  Bytes encoded = skipindex::EncodeDocument(doc, {}).value();
  // The unmutated document decodes fully, whatever the window size.
  ExpectSourcesAgree(encoded, 100000, "original");
  Rng rng(FuzzSeed() + 5);
  for (int iter = 0; iter < 300; ++iter) {
    Bytes mutated = encoded;
    size_t pos = rng.Uniform(mutated.size());
    mutated[pos] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    // Drain with a hard event bound; decoding must stop cleanly.
    ExpectSourcesAgree(mutated, 100000,
                       "iter=" + std::to_string(iter) +
                           " pos=" + std::to_string(pos));
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(FuzzTest, DocumentDecoderSurvivesTruncations) {
  auto doc = xml::DomDocument::Parse("<a><b>text</b><c><d/></c></a>").value();
  Bytes encoded = skipindex::EncodeDocument(doc, {}).value();
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    Bytes prefix(encoded.begin(), encoded.begin() + static_cast<long>(cut));
    skipindex::MemorySource src(prefix);
    DecodeTrace trace = DrainDecoder(&src, 1000);
    EXPECT_FALSE(trace.status.ok()) << "truncation at " << cut
                                    << " undetected";
    ExpectSourcesAgree(prefix, 1000, "cut=" + std::to_string(cut));
  }
}

// --- Container parse fuzz ---------------------------------------------------

TEST(FuzzTest, ContainerParserSurvivesMutations) {
  SCOPED_TRACE(SeedTrace(6));
  Rng rng(FuzzSeed() + 6);
  auto key = crypto::SymmetricKey::Generate(&rng);
  Bytes payload(900, 0x77);
  Bytes sealed = crypto::SecureContainer::Seal(key, payload, 256, &rng);
  for (int iter = 0; iter < 300; ++iter) {
    Bytes mutated = sealed;
    size_t n_edits = 1 + rng.Uniform(3);
    for (size_t e = 0; e < n_edits; ++e) {
      mutated[rng.Uniform(mutated.size())] ^= static_cast<uint8_t>(rng.Next());
    }
    if (rng.Chance(0.3)) {
      mutated.resize(rng.Uniform(mutated.size()));
    }
    auto container = crypto::SecureContainer::Parse(mutated);
    if (!container.ok()) continue;
    // Parsed containers with corrupt content must fail verification,
    // never deliver modified plaintext.
    auto opened = crypto::SecureContainer::OpenAll(key, mutated);
    if (opened.ok()) {
      EXPECT_EQ(opened.value(), payload);  // only the untouched original
    }
  }
}

// --- Rule set parse fuzz ----------------------------------------------------

TEST(FuzzTest, RuleSetBinaryDecoderSurvivesMutations) {
  auto set = core::RuleSet::ParseText("+ a //x\n- b //y[z=\"1\"]\n").value();
  ByteWriter w;
  set.EncodeTo(&w);
  Bytes encoded = w.bytes();
  SCOPED_TRACE(SeedTrace(7));
  Rng rng(FuzzSeed() + 7);
  for (int iter = 0; iter < 200; ++iter) {
    Bytes mutated = encoded;
    mutated[rng.Uniform(mutated.size())] ^= static_cast<uint8_t>(rng.Next());
    if (rng.Chance(0.4)) mutated.resize(rng.Uniform(mutated.size() + 1));
    ByteReader r(mutated);
    auto decoded = core::RuleSet::DecodeFrom(&r);  // must not crash
    (void)decoded;
  }
}

// --- APDU codec fuzz --------------------------------------------------------

TEST(FuzzTest, ApduDecodersSurviveMutations) {
  soe::ApduCommand cmd;
  cmd.ins = soe::Ins::kRunQuery;
  cmd.data = Bytes(64, 0xAB);
  ByteWriter w;
  cmd.EncodeTo(&w);
  Bytes encoded = w.bytes();
  SCOPED_TRACE(SeedTrace(8));
  Rng rng(FuzzSeed() + 8);
  for (int iter = 0; iter < 200; ++iter) {
    Bytes mutated = encoded;
    mutated[rng.Uniform(mutated.size())] ^= static_cast<uint8_t>(rng.Next());
    if (rng.Chance(0.4)) mutated.resize(rng.Uniform(mutated.size() + 1));
    ByteReader r(mutated);
    auto decoded = soe::ApduCommand::DecodeFrom(&r);
    (void)decoded;
  }
}

// --- Fetch plan fuzz --------------------------------------------------------

TEST(FuzzTest, CorruptedFetchPlansNeverChangeTheView) {
  // The advisory-plan contract under mutation fuzzing: ANY plan — shifted,
  // truncated, duplicated, pointing past the container, empty — fed to a
  // PlannedProvider must still deliver the DOM-oracle view. A bad plan may
  // cost fallback round trips; it must never change a byte of output or
  // smuggle an unverified chunk past the card (every chunk still goes
  // through verify-and-decrypt).
  SCOPED_TRACE(SeedTrace(11));
  Rng rng(FuzzSeed() + 11);
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kHospital;
  gp.target_elements = 600;
  gp.seed = FuzzSeed() + 12;
  xml::DomDocument doc = xml::GenerateDocument(gp);
  auto rules = core::RuleSet::ParseText("+ u //patient/admin\n").value();
  std::vector<core::AccessRule> subject_rules = rules.ForSubject("u");
  Bytes encoded = skipindex::EncodeDocument(doc, {}).value();
  auto key = crypto::SymmetricKey::Generate(&rng);
  Bytes sealed = crypto::SecureContainer::Seal(key, encoded, 128, &rng);
  auto container = crypto::SecureContainer::Parse(sealed).value();
  const uint32_t chunk_count = container.header().chunk_count;

  std::string expected =
      core::BuildAuthorizedView(doc, subject_rules, nullptr)
          .value()
          .Serialize();
  soe::FetchPlan good =
      soe::ComputeFetchPlan(Span(encoded), 128, subject_rules, nullptr, true)
          .value();

  auto scan_with_plan = [&](const soe::FetchPlan& plan) -> Result<std::string> {
    soe::ContainerChunkProvider backend(&container);
    soe::PlannedProvider provider(&backend, chunk_count, plan);
    soe::ChunkSource source(key, container.header(), &provider, nullptr);
    CSXA_ASSIGN_OR_RETURN(auto dec, skipindex::DocumentDecoder::Open(&source));
    xml::CanonicalWriter writer;
    CSXA_ASSIGN_OR_RETURN(
        auto ev, core::StreamingEvaluator::Create(subject_rules, nullptr,
                                                  &writer));
    skipindex::FilterOptions fopts;
    fopts.enable_skip = true;
    CSXA_RETURN_IF_ERROR(
        skipindex::RunFiltered(dec.get(), ev.get(), fopts, nullptr));
    return writer.str();
  };

  for (int iter = 0; iter < 200; ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    soe::FetchPlan mutated = good;
    size_t edits = 1 + rng.Uniform(4);
    for (size_t e = 0; e < edits && !mutated.runs.empty(); ++e) {
      size_t at = rng.Uniform(mutated.runs.size());
      switch (rng.Uniform(6)) {
        case 0:  // shift a run anywhere, including far past the end
          mutated.runs[at].first = static_cast<uint32_t>(
              rng.Uniform(chunk_count * 3 + 1));
          break;
        case 1:  // grow or shrink a run
          mutated.runs[at].count = static_cast<uint32_t>(
              rng.Uniform(chunk_count + 4));
          break;
        case 2:  // drop a run (under-covering plan: forces fallbacks)
          mutated.runs.erase(mutated.runs.begin() +
                             static_cast<long>(at));
          break;
        case 3:  // duplicate a run (overlap)
          mutated.runs.push_back(mutated.runs[at]);
          break;
        case 4:  // inject a random run
          mutated.runs.push_back(skipindex::ChunkRun{
              static_cast<uint32_t>(rng.Uniform(chunk_count * 2 + 1)),
              static_cast<uint32_t>(rng.Uniform(8))});
          break;
        case 5:  // truncate the plan entirely now and then
          if (rng.Chance(0.3)) mutated.runs.clear();
          break;
      }
    }
    auto view = scan_with_plan(mutated);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(view.value(), expected);
  }
}

// --- CTR positional independence --------------------------------------------

TEST(CtrPropertyTest, ChunkStreamsAreIndependent) {
  // Decrypting chunk i never depends on other chunks: the property the
  // skip index relies on. Open chunks in reverse order and compare.
  SCOPED_TRACE(SeedTrace(9));
  Rng rng(FuzzSeed() + 9);
  auto key = crypto::SymmetricKey::Generate(&rng);
  Bytes payload;
  for (int i = 0; i < 2000; ++i) payload.push_back(static_cast<uint8_t>(rng.Next()));
  Bytes sealed = crypto::SecureContainer::Seal(key, payload, 256, &rng);
  auto container = crypto::SecureContainer::Parse(sealed).value();
  ASSERT_TRUE(crypto::SecureContainer::VerifyRoot(key, container.header()).ok());
  Bytes reassembled(payload.size());
  for (int i = static_cast<int>(container.header().chunk_count) - 1; i >= 0;
       --i) {
    auto cipher = container.ChunkCiphertext(static_cast<uint32_t>(i)).value();
    auto auth = container.GetChunkAuth(static_cast<uint32_t>(i)).value();
    auto plain = crypto::SecureContainer::VerifyAndDecryptChunk(
        key, container.header(), static_cast<uint32_t>(i), cipher, auth);
    ASSERT_TRUE(plain.ok());
    std::memcpy(reassembled.data() + static_cast<size_t>(i) * 256,
                plain.value().data(), plain.value().size());
  }
  EXPECT_EQ(reassembled, payload);
}

TEST(CtrPropertyTest, KeystreamNeverReused) {
  // Two documents sealed under the same key must not share keystream:
  // XOR of ciphertexts must not equal XOR of plaintexts.
  SCOPED_TRACE(SeedTrace(10));
  Rng rng(FuzzSeed() + 10);
  auto key = crypto::SymmetricKey::Generate(&rng);
  Bytes pa(256, 0x00), pb(256, 0xFF);
  Bytes sa = crypto::SecureContainer::Seal(key, pa, 256, &rng);
  Bytes sb = crypto::SecureContainer::Seal(key, pb, 256, &rng);
  auto ca = crypto::SecureContainer::Parse(sa).value().ChunkCiphertext(0).value();
  auto cb = crypto::SecureContainer::Parse(sb).value().ChunkCiphertext(0).value();
  size_t same = 0;
  for (size_t i = 0; i < 256; ++i) {
    if (static_cast<uint8_t>(ca[i] ^ cb[i]) == static_cast<uint8_t>(pa[i] ^ pb[i])) {
      ++same;
    }
  }
  EXPECT_LT(same, 16u);  // chance collisions only
}

}  // namespace
}  // namespace csxa
