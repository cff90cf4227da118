// Property suite for the parameterized scenario generator: randomized
// ScenarioSpecs must build (a) seed-stably — equal spec + seed means a
// byte-identical scenario — and (b) soundly: every generated document ×
// rule-set × query triple must survive the repo's strongest oracles (the
// skip-on/skip-off encode→decode→RunFiltered differential against the DOM
// reference view, and fetch-plan exactness over the sealed container).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/evaluator.h"
#include "core/ref_evaluator.h"
#include "core/rule.h"
#include "crypto/container.h"
#include "scengen/spec.h"
#include "skipindex/byte_source.h"
#include "skipindex/codec.h"
#include "skipindex/filter.h"
#include "soe/chunk_source.h"
#include "soe/prefetch.h"
#include "xml/writer.h"
#include "xpath/parser.h"

namespace csxa {
namespace {

// Same reproduction contract as core_oracle_property_test: default runs
// are fully deterministic; CSXA_SEED_OFFSET shifts every seed, and the
// effective seed is attached to each failure.
uint64_t SeedOffset() {
  static const uint64_t offset = [] {
    const char* v = std::getenv("CSXA_SEED_OFFSET");
    return (v != nullptr && *v != '\0') ? std::strtoull(v, nullptr, 10)
                                        : 0ull;
  }();
  return offset;
}

// A random point of the spec space: profile, document shape, rule shape,
// query mix and churn all vary. Deterministic in `seed`.
scengen::ScenarioSpec RandomSpec(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  scengen::ScenarioSpec s;
  s.name = "prop" + std::to_string(seed);
  s.seed = seed * 31 + 7;
  s.documents = 1 + rng.Uniform(3);
  static const xml::DocProfile kProfiles[] = {
      xml::DocProfile::kAgenda, xml::DocProfile::kHospital,
      xml::DocProfile::kNewsFeed, xml::DocProfile::kRandom,
      xml::DocProfile::kIoT};
  s.doc.profile = kProfiles[rng.Uniform(5)];
  s.doc.elements = 20 + rng.Uniform(100);
  s.doc.text_avg_len = 8 + rng.Uniform(24);
  s.doc.max_depth = 4 + static_cast<int>(rng.Uniform(5));
  s.doc.fan_out = rng.Uniform(7);        // 0 keeps the profile default
  s.doc.folder_depth = rng.Uniform(4);   // deep folders on kHospital
  s.doc.text_prob = 0.3 + 0.5 * rng.NextDouble();
  s.rules.subjects = 1 + rng.Uniform(4);
  s.rules.rules_per_subject = 1 + rng.Uniform(6);
  s.rules.negative_ratio = 0.2 + 0.4 * rng.NextDouble();
  s.rules.predicate_prob = 0.5 * rng.NextDouble();
  s.rules.descendant_prob = 0.2 + 0.5 * rng.NextDouble();
  s.rules.wildcard_prob = 0.2 * rng.NextDouble();
  s.rules.junk_tag_prob = 0.1 * rng.NextDouble();
  s.rules.max_steps = 2 + rng.Uniform(3);
  s.queries.generated = 1 + rng.Uniform(3);
  s.queries.predicate_prob = 0.5 * rng.NextDouble();
  s.churn.update_fraction = 0.5 * rng.NextDouble();
  s.churn.publish_fraction = 0.3 * rng.NextDouble();
  s.churn.subject_churn = rng.NextDouble();
  return s;
}

std::set<std::string> MobileSubjects(const std::string& rules_text) {
  auto set = core::RuleSet::ParseText(rules_text);
  EXPECT_TRUE(set.ok()) << rules_text;
  std::set<std::string> out;
  if (!set.ok()) return out;
  for (const std::string& s : set.value().Subjects()) {
    if (!s.empty() && s[0] == 'm') out.insert(s);
  }
  return out;
}

TEST(ScenGenSeedStability, EqualSpecBuildsByteIdenticalScenario) {
  for (int iter = 0; iter < 8; ++iter) {
    const uint64_t seed = 21000 + SeedOffset() + static_cast<uint64_t>(iter);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " (CSXA_SEED_OFFSET=" + std::to_string(SeedOffset()) + ")");
    const scengen::ScenarioSpec spec = RandomSpec(seed);
    const scengen::GeneratedScenario a = scengen::BuildScenario(spec);
    const scengen::GeneratedScenario b = scengen::BuildScenario(spec);

    // The headline contract: equal spec + seed ⇒ byte-identical scenario
    // (documents, rule revisions, subjects, queries — everything).
    ASSERT_EQ(a.Fingerprint(), b.Fingerprint());

    ASSERT_EQ(a.docs.size(), spec.documents);
    ASSERT_FALSE(a.queries.empty());
    for (const scengen::ScenarioDoc& doc : a.docs) {
      // Every rule revision parses, revision 0 is the doc's own text, and
      // the query-safe subjects appear in every revision.
      EXPECT_EQ(a.RulesRevision(doc.index, 0), doc.rules_text);
      ASSERT_FALSE(doc.subjects.empty());
      for (uint64_t rev = 0; rev < 3; ++rev) {
        auto rules = core::RuleSet::ParseText(a.RulesRevision(doc.index, rev));
        ASSERT_TRUE(rules.ok()) << "doc=" << doc.doc_id << " rev=" << rev;
        std::vector<std::string> subjects = rules.value().Subjects();
        for (const std::string& s : doc.subjects) {
          EXPECT_NE(std::find(subjects.begin(), subjects.end(), s),
                    subjects.end())
              << "stable subject " << s << " missing from doc=" << doc.doc_id
              << " rev=" << rev;
        }
      }
      // Re-minting any fleet document reproduces it exactly.
      scengen::ScenarioDoc again = a.MakeDoc(doc.index);
      EXPECT_EQ(again.doc_id, doc.doc_id);
      EXPECT_EQ(again.rules_text, doc.rules_text);
      EXPECT_EQ(again.subjects, doc.subjects);
      EXPECT_EQ(a.Materialize(again).Serialize(),
                a.Materialize(doc).Serialize());
    }

    // Subject churn actually churns: with a nonzero mobile window the
    // subscriber set slides between consecutive revisions.
    std::set<std::string> m0 = MobileSubjects(a.RulesRevision(0, 0));
    std::set<std::string> m1 = MobileSubjects(a.RulesRevision(0, 1));
    if (!m0.empty()) {
      EXPECT_NE(m0, m1);
    }

    // And the seed is load-bearing: a different seed is a different
    // scenario.
    scengen::ScenarioSpec other = spec;
    other.seed += 1;
    EXPECT_NE(scengen::BuildScenario(other).Fingerprint(), a.Fingerprint());
  }
}

// --- Skip-on/skip-off differential over generated scenarios ---------------

struct FilteredRun {
  std::string view;
  core::EvaluatorStats stats;
};

FilteredRun RunFilteredView(Span encoded,
                            const std::vector<core::AccessRule>& rules,
                            bool enable_skip, Status* status_out) {
  FilteredRun out;
  skipindex::MemorySource source(encoded);
  auto dec = skipindex::DocumentDecoder::Open(&source);
  if (!dec.ok()) {
    *status_out = dec.status();
    return out;
  }
  xml::CanonicalWriter writer;
  auto ev = core::StreamingEvaluator::Create(rules, nullptr, &writer);
  if (!ev.ok()) {
    *status_out = ev.status();
    return out;
  }
  skipindex::FilterOptions fopts;
  fopts.enable_skip = enable_skip;
  *status_out =
      skipindex::RunFiltered(dec.value().get(), ev.value().get(), fopts,
                             nullptr);
  out.view = writer.str();
  out.stats = ev.value()->stats();
  return out;
}

TEST(ScenGenOracle, SkipDifferentialOverSpecDocuments) {
  for (int iter = 0; iter < 6; ++iter) {
    const uint64_t seed = 22000 + SeedOffset() + static_cast<uint64_t>(iter);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " (CSXA_SEED_OFFSET=" + std::to_string(SeedOffset()) + ")");
    const scengen::GeneratedScenario gen =
        scengen::BuildScenario(RandomSpec(seed));
    const size_t probe_docs = std::min<size_t>(gen.docs.size(), 2);
    for (size_t d = 0; d < probe_docs; ++d) {
      const scengen::ScenarioDoc& sd = gen.docs[d];
      xml::DomDocument doc = gen.Materialize(sd);
      ASSERT_NE(doc.root(), nullptr);
      auto rules = core::RuleSet::ParseText(sd.rules_text);
      ASSERT_TRUE(rules.ok());
      auto encoded = skipindex::EncodeDocument(doc, {});
      ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();

      for (const std::string& subject : sd.subjects) {
        SCOPED_TRACE("doc=" + sd.doc_id + " subject=" + subject);
        std::vector<core::AccessRule> subject_rules =
            rules.value().ForSubject(subject);
        Status st = Status::OK();
        FilteredRun with_skip =
            RunFilteredView(Span(encoded.value()), subject_rules, true, &st);
        ASSERT_TRUE(st.ok()) << st.ToString();
        FilteredRun no_skip =
            RunFilteredView(Span(encoded.value()), subject_rules, false, &st);
        ASSERT_TRUE(st.ok()) << st.ToString();

        auto ref = core::BuildAuthorizedView(doc, subject_rules, nullptr);
        ASSERT_TRUE(ref.ok()) << ref.status().ToString();
        const std::string expected = ref.value().Serialize();
        EXPECT_EQ(with_skip.view, expected)
            << "rules:\n" << rules.value().ToText();
        EXPECT_EQ(no_skip.view, expected);
        // Skips change what is examined, never what is delivered.
        EXPECT_EQ(with_skip.stats.nodes_permitted,
                  no_skip.stats.nodes_permitted);
        EXPECT_LE(with_skip.stats.nodes_denied, no_skip.stats.nodes_denied);
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// --- Fetch-plan exactness over generated scenarios -------------------------

TEST(ScenGenOracle, FetchPlanSoundOverSpecDocuments) {
  for (int iter = 0; iter < 6; ++iter) {
    const uint64_t seed = 23000 + SeedOffset() + static_cast<uint64_t>(iter);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " (CSXA_SEED_OFFSET=" + std::to_string(SeedOffset()) + ")");
    const scengen::GeneratedScenario gen =
        scengen::BuildScenario(RandomSpec(seed));
    const scengen::ScenarioDoc& sd = gen.docs[0];
    xml::DomDocument doc = gen.Materialize(sd);
    ASSERT_NE(doc.root(), nullptr);
    auto rules = core::RuleSet::ParseText(sd.rules_text);
    ASSERT_TRUE(rules.ok());
    std::vector<core::AccessRule> subject_rules =
        rules.value().ForSubject(sd.subjects[0]);

    // Query the scenario's own mix (parse the first entry; the generator
    // guarantees it parses).
    xpath::PathExpr qexpr;
    const xpath::PathExpr* qptr = nullptr;
    if (iter % 2 == 0) {
      auto q = xpath::ParsePath(gen.queries[0].second);
      ASSERT_TRUE(q.ok()) << gen.queries[0].second;
      qexpr = std::move(q).value();
      qptr = &qexpr;
    }
    const uint32_t chunk_size = (iter % 3 == 0) ? 64 : 256;

    auto encoded = skipindex::EncodeDocument(doc, {});
    ASSERT_TRUE(encoded.ok());
    auto plan = soe::ComputeFetchPlan(Span(encoded.value()), chunk_size,
                                      subject_rules, qptr, true);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();

    // Ground truth: the sealed-container scan with every fetch recorded.
    Rng rng(seed * 5227 + 29);
    auto key = crypto::SymmetricKey::Generate(&rng);
    Bytes sealed =
        crypto::SecureContainer::Seal(key, encoded.value(), chunk_size, &rng);
    auto container = crypto::SecureContainer::Parse(sealed);
    ASSERT_TRUE(container.ok());
    soe::ContainerChunkProvider backend(&container.value());
    soe::PlannedProvider recorder(&backend,
                                  container.value().header().chunk_count);
    soe::ChunkSource source(crypto::DocCipher::For(key),
                            container.value().header(), &recorder, nullptr);
    auto dec = skipindex::DocumentDecoder::Open(&source);
    ASSERT_TRUE(dec.ok()) << dec.status().ToString();
    xml::CanonicalWriter writer;
    auto ev = core::StreamingEvaluator::Create(subject_rules, qptr, &writer);
    ASSERT_TRUE(ev.ok());
    skipindex::FilterOptions fopts;
    fopts.enable_skip = true;
    Status st = skipindex::RunFiltered(dec.value().get(), ev.value().get(),
                                       fopts, nullptr);
    ASSERT_TRUE(st.ok()) << st.ToString();

    std::set<uint32_t> fetched(recorder.requested().begin(),
                               recorder.requested().end());
    std::set<uint32_t> planned;
    for (const skipindex::ChunkRun& r : plan.value().runs) {
      for (uint32_t i = 0; i < r.count; ++i) planned.insert(r.first + i);
    }
    for (uint32_t c : fetched) {
      EXPECT_TRUE(plan.value().Covers(c))
          << "fetched chunk " << c << " not in plan";
    }
    EXPECT_EQ(planned, fetched) << "doc=" << sd.doc_id;

    auto ref = core::BuildAuthorizedView(doc, subject_rules, qptr);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(writer.str(), ref.value().Serialize());
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace csxa
