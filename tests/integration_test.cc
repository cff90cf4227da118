// End-to-end integration: publisher -> DSP -> PKI -> terminal proxy ->
// APDU -> card -> delivered view, across the demo scenarios; dynamic rule
// updates; DSP tampering; multi-user isolation.

#include <gtest/gtest.h>

#include "core/ref_evaluator.h"
#include "dsp/store.h"
#include "pki/registry.h"
#include "proxy/publisher.h"
#include "proxy/terminal.h"
#include "scengen/scenario.h"
#include "xml/generator.h"
#include "xpath/parser.h"

namespace csxa {
namespace {

using proxy::Publisher;
using proxy::QueryOptions;
using proxy::Terminal;
using soe::CardProfile;

struct World {
  dsp::DspServer dsp;
  pki::KeyRegistry registry;
  Publisher publisher{&dsp, &registry, 4242};
};

xml::DomDocument MakeDoc(xml::DocProfile profile, size_t elements,
                         uint64_t seed) {
  xml::GeneratorParams gp;
  gp.profile = profile;
  gp.target_elements = elements;
  gp.seed = seed;
  return xml::GenerateDocument(gp);
}

// Reference view computed on a fresh copy of the same generated document.
std::string RefView(xml::DocProfile profile, size_t elements, uint64_t seed,
                    const std::string& rules_text, const std::string& subject,
                    const std::string& query) {
  auto doc = MakeDoc(profile, elements, seed);
  auto rules = core::RuleSet::ParseText(rules_text).value();
  xpath::PathExpr qexpr;
  const xpath::PathExpr* qptr = nullptr;
  if (!query.empty()) {
    qexpr = xpath::ParsePath(query).value();
    qptr = &qexpr;
  }
  return core::BuildAuthorizedView(doc, rules.ForSubject(subject), qptr)
      .value()
      .Serialize();
}

TEST(IntegrationTest, FullPullPathMatchesOracle) {
  World w;
  auto doc = MakeDoc(xml::DocProfile::kAgenda, 300, 7);
  auto scenario = scengen::AgendaScenario();
  auto receipt = w.publisher.Publish("agenda", doc, scenario.rules_text);
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();

  Terminal secretary("secretary", CardProfile::EGate(), &w.dsp, &w.registry);
  ASSERT_TRUE(secretary.Provision("agenda").ok());
  QueryOptions qo;
  auto result = secretary.Query("agenda", qo);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().xml,
            RefView(xml::DocProfile::kAgenda, 300, 7, scenario.rules_text,
                    "secretary", ""));
  EXPECT_GT(result.value().apdu_round_trips, 3u);
  EXPECT_GT(result.value().card.total_seconds, 0.0);
}

TEST(IntegrationTest, AllScenariosAllSubjectsAllQueries) {
  for (const scengen::Scenario& scenario : scengen::AllScenarios()) {
    World w;
    auto doc = MakeDoc(scenario.profile, 250, 11);
    std::string doc_id = xml::DocProfileName(scenario.profile);
    ASSERT_TRUE(w.publisher.Publish(doc_id, doc, scenario.rules_text).ok());
    auto rules = core::RuleSet::ParseText(scenario.rules_text).value();
    for (const std::string& subject : rules.Subjects()) {
      Terminal term(subject, CardProfile::EGate(), &w.dsp, &w.registry);
      ASSERT_TRUE(term.Provision(doc_id).ok());
      for (const auto& [label, query] : scenario.queries) {
        QueryOptions qo;
        qo.query = query;
        auto result = term.Query(doc_id, qo);
        ASSERT_TRUE(result.ok())
            << doc_id << "/" << subject << "/" << label << ": "
            << result.status().ToString();
        EXPECT_EQ(result.value().xml,
                  RefView(scenario.profile, 250, 11, scenario.rules_text,
                          subject, query))
            << doc_id << "/" << subject << "/" << label;
      }
    }
  }
}

TEST(IntegrationTest, UnprovisionedUserCannotQuery) {
  World w;
  auto doc = MakeDoc(xml::DocProfile::kAgenda, 100, 3);
  ASSERT_TRUE(
      w.publisher.Publish("agenda", doc, "+ alice /agenda\n").ok());
  Terminal mallory("mallory", CardProfile::EGate(), &w.dsp, &w.registry);
  // No grant in the registry: provisioning fails.
  EXPECT_FALSE(mallory.Provision("agenda").ok());
  // Even issuing a query without a key fails at the card.
  QueryOptions qo;
  EXPECT_FALSE(mallory.Query("agenda", qo).ok());
}

TEST(IntegrationTest, SubjectWithNoRulesGetsNothing) {
  World w;
  auto doc = MakeDoc(xml::DocProfile::kAgenda, 100, 3);
  ASSERT_TRUE(w.publisher
                  .Publish("agenda", doc,
                           "+ alice /agenda\n+ bob //meeting/title\n")
                  .ok());
  // bob is granted a key (he appears in the rules) but his rules only
  // expose titles; carol has a key grant but no rules at all.
  w.registry.RegisterUser("carol");
  auto key = w.registry.Fetch("agenda", "alice").value();
  ASSERT_TRUE(w.registry.Grant("agenda", "carol", key).ok());
  Terminal carol("carol", CardProfile::EGate(), &w.dsp, &w.registry);
  ASSERT_TRUE(carol.Provision("agenda").ok());
  auto result = carol.Query("agenda", QueryOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().xml, "");  // closed policy
}

TEST(IntegrationTest, DynamicRuleUpdateTakesEffect) {
  World w;
  auto doc = MakeDoc(xml::DocProfile::kHospital, 200, 5);
  std::string rules_v1 = "+ doctor //patient\n";
  auto receipt = w.publisher.Publish("folder", doc, rules_v1);
  ASSERT_TRUE(receipt.ok());

  Terminal doctor("doctor", CardProfile::EGate(), &w.dsp, &w.registry);
  ASSERT_TRUE(doctor.Provision("folder").ok());
  auto before = doctor.Query("folder", QueryOptions{});
  ASSERT_TRUE(before.ok());
  EXPECT_NE(before.value().xml.find("<ssn>"), std::string::npos);

  // The patient's situation changes: hide identity going forward. No
  // re-encryption, no key redistribution — just a new sealed rule set.
  std::string rules_v2 =
      "+ doctor //patient\n- doctor //patient/ssn\n- doctor //patient/name\n";
  auto update =
      w.publisher.UpdateRules("folder", receipt.value().key, rules_v2);
  ASSERT_TRUE(update.ok());
  EXPECT_LT(update.value(), 1024u);  // the whole cost of the policy change

  auto after = doctor.Query("folder", QueryOptions{});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().xml.find("<ssn>"), std::string::npos);
  EXPECT_EQ(after.value().xml,
            RefView(xml::DocProfile::kHospital, 200, 5, rules_v2, "doctor",
                    ""));
  auto open = w.dsp.OpenDocument("folder");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open.value().rules_version, 2u);
}

TEST(IntegrationTest, StaleRulesRollbackIsRejected) {
  // The access-rights update protocol (demo objective 2): a malicious DSP
  // re-serves an old, more permissive sealed rule set after the owner
  // restricted the policy. The card's version anchor must refuse it.
  World w;
  auto doc = MakeDoc(xml::DocProfile::kHospital, 150, 21);
  auto receipt =
      w.publisher.Publish("folder", doc, "+ doctor //patient\n");
  ASSERT_TRUE(receipt.ok());
  Bytes permissive_blob = w.dsp.OpenDocument("folder").value().sealed_rules;

  Terminal doctor("doctor", CardProfile::EGate(), &w.dsp, &w.registry);
  ASSERT_TRUE(doctor.Provision("folder").ok());
  ASSERT_TRUE(doctor.Query("folder", QueryOptions{}).ok());  // sees v1

  // Owner restricts the policy; the doctor's card observes version 2.
  ASSERT_TRUE(w.publisher
                  .UpdateRules("folder", receipt.value().key,
                               "+ doctor //patient\n- doctor //patient/ssn\n")
                  .ok());
  auto restricted = doctor.Query("folder", QueryOptions{});
  ASSERT_TRUE(restricted.ok());
  EXPECT_EQ(restricted.value().xml.find("<ssn>"), std::string::npos);

  // The DSP rolls back to the captured permissive blob.
  auto container = w.dsp.GetContainer("folder").value();
  ASSERT_TRUE(
      w.dsp.Publish("folder", std::move(container), permissive_blob).ok());
  auto rollback = doctor.Query("folder", QueryOptions{});
  EXPECT_FALSE(rollback.ok());
  EXPECT_EQ(rollback.status().code(), StatusCode::kIntegrityError);
}

TEST(IntegrationTest, DspTamperingIsDetected) {
  World w;
  auto doc = MakeDoc(xml::DocProfile::kAgenda, 150, 9);
  ASSERT_TRUE(w.publisher.Publish("agenda", doc, "+ u /agenda\n").ok());

  // A malicious DSP flips one ciphertext byte of a stored chunk.
  auto container = w.dsp.GetContainer("agenda").value();
  Bytes tampered = container;
  tampered[tampered.size() - 10] ^= 0x40;
  auto sealed_rules = w.dsp.OpenDocument("agenda").value().sealed_rules;
  ASSERT_TRUE(w.dsp.Publish("agenda", std::move(tampered),
                            std::move(sealed_rules))
                  .ok());

  Terminal u("u", CardProfile::EGate(), &w.dsp, &w.registry);
  ASSERT_TRUE(u.Provision("agenda").ok());
  auto result = u.Query("agenda", QueryOptions{});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIntegrityError);
}

TEST(IntegrationTest, SkipAndNoSkipAgreeThroughFullStack) {
  World w;
  auto doc = MakeDoc(xml::DocProfile::kHospital, 600, 13);
  auto scenario = scengen::HospitalScenario();
  ASSERT_TRUE(w.publisher.Publish("h", doc, scenario.rules_text).ok());
  Terminal researcher("researcher", CardProfile::EGate(), &w.dsp, &w.registry);
  ASSERT_TRUE(researcher.Provision("h").ok());

  QueryOptions with_skip;
  with_skip.query = "//treatment";
  QueryOptions no_skip = with_skip;
  no_skip.use_skip = false;
  auto a = researcher.Query("h", with_skip);
  auto b = researcher.Query("h", no_skip);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().xml, b.value().xml);
  EXPECT_LE(a.value().card.chunks_fetched, b.value().card.chunks_fetched);
  EXPECT_LT(a.value().card.total_seconds, b.value().card.total_seconds);
}

TEST(IntegrationTest, QueryErrorsSurfaceCleanly) {
  World w;
  auto doc = MakeDoc(xml::DocProfile::kAgenda, 80, 2);
  ASSERT_TRUE(w.publisher.Publish("a", doc, "+ u /agenda\n").ok());
  Terminal u("u", CardProfile::EGate(), &w.dsp, &w.registry);
  ASSERT_TRUE(u.Provision("a").ok());
  QueryOptions bad;
  bad.query = "not an xpath";
  EXPECT_FALSE(u.Query("a", bad).ok());
  EXPECT_FALSE(u.Query("missing-doc", QueryOptions{}).ok());
}

TEST(IntegrationTest, RamStaysUnderEGateBudgetOnScenarioWorkloads) {
  // The paper's claim: the streaming engine fits the e-gate's 1 KB of RAM
  // on realistic documents and rule sets.
  for (const scengen::Scenario& scenario : scengen::AllScenarios()) {
    World w;
    auto doc = MakeDoc(scenario.profile, 400, 17);
    std::string doc_id = xml::DocProfileName(scenario.profile);
    ASSERT_TRUE(w.publisher.Publish(doc_id, doc, scenario.rules_text).ok());
    auto rules = core::RuleSet::ParseText(scenario.rules_text).value();
    for (const std::string& subject : rules.Subjects()) {
      Terminal term(subject, CardProfile::EGate(), &w.dsp, &w.registry);
      ASSERT_TRUE(term.Provision(doc_id).ok());
      QueryOptions qo;
      qo.strict_ram = false;
      auto result = term.Query(doc_id, qo);
      ASSERT_TRUE(result.ok());
      EXPECT_LE(result.value().card.ram_peak, 4096u)
          << doc_id << "/" << subject << " peak "
          << result.value().card.ram_peak;
    }
  }
}

}  // namespace
}  // namespace csxa
