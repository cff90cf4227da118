// PKI registry tests, rule-set round-trips and the publisher facade. The
// DSP backends' protocol suite runs in transport_test.cc.

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "core/rule.h"
#include "dsp/store.h"
#include "pki/registry.h"
#include "proxy/publisher.h"
#include "scengen/spec.h"
#include "xml/generator.h"

namespace csxa {
namespace {

TEST(PkiTest, GrantFetchRevoke) {
  pki::KeyRegistry registry;
  Rng rng(4);
  auto key = crypto::SymmetricKey::Generate(&rng);
  registry.RegisterUser("alice");
  ASSERT_TRUE(registry.Grant("doc", "alice", key).ok());
  auto fetched = registry.Fetch("doc", "alice");
  ASSERT_TRUE(fetched.ok());
  EXPECT_TRUE(fetched.value() == key);
  EXPECT_EQ(registry.GrantCount("doc"), 1u);

  ASSERT_TRUE(registry.Revoke("doc", "alice").ok());
  EXPECT_FALSE(registry.Fetch("doc", "alice").ok());
  EXPECT_FALSE(registry.Revoke("doc", "alice").ok());
}

TEST(PkiTest, UnknownUserCannotBeGranted) {
  pki::KeyRegistry registry;
  Rng rng(5);
  auto key = crypto::SymmetricKey::Generate(&rng);
  EXPECT_EQ(registry.Grant("doc", "ghost", key).code(),
            StatusCode::kNotFound);
}

TEST(PkiTest, KeysDistributedCounter) {
  pki::KeyRegistry registry;
  Rng rng(6);
  registry.RegisterUser("a");
  registry.RegisterUser("b");
  auto key = crypto::SymmetricKey::Generate(&rng);
  ASSERT_TRUE(registry.Grant("d1", "a", key).ok());
  ASSERT_TRUE(registry.Grant("d1", "b", key).ok());
  ASSERT_TRUE(registry.Grant("d2", "a", key).ok());
  EXPECT_EQ(registry.keys_distributed(), 3u);
  EXPECT_EQ(registry.Users().size(), 2u);
}

TEST(PublisherTest, PublishGrantsEverySubject) {
  dsp::DspServer server;
  pki::KeyRegistry registry;
  proxy::Publisher publisher(&server, &registry, 7);
  xml::GeneratorParams gp;
  gp.target_elements = 60;
  gp.seed = 8;
  auto doc = xml::GenerateDocument(gp);
  auto receipt = publisher.Publish(
      "d", doc, "+ alice /agenda\n- bob //note\n+ alice //meeting\n");
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(registry.Fetch("d", "alice").ok());
  EXPECT_TRUE(registry.Fetch("d", "bob").ok());
  EXPECT_EQ(registry.GrantCount("d"), 2u);
  EXPECT_GT(receipt.value().container_bytes,
            receipt.value().sealed_rules_bytes);
}

TEST(PublisherTest, UpdateRulesGrantsNewSubjects) {
  dsp::DspServer server;
  pki::KeyRegistry registry;
  proxy::Publisher publisher(&server, &registry, 9);
  xml::GeneratorParams gp;
  gp.target_elements = 60;
  gp.seed = 10;
  auto doc = xml::GenerateDocument(gp);
  auto receipt = publisher.Publish("d", doc, "+ alice /agenda\n");
  ASSERT_TRUE(receipt.ok());
  auto update = publisher.UpdateRules("d", receipt.value().key,
                                      "+ alice /agenda\n+ carol //meeting\n");
  ASSERT_TRUE(update.ok());
  EXPECT_TRUE(registry.Fetch("d", "carol").ok());
  EXPECT_EQ(server.OpenDocument("d").value().rules_version, 2u);
}

TEST(PublisherTest, BadRulesRejected) {
  dsp::DspServer server;
  pki::KeyRegistry registry;
  proxy::Publisher publisher(&server, &registry, 11);
  xml::GeneratorParams gp;
  gp.target_elements = 30;
  auto doc = xml::GenerateDocument(gp);
  EXPECT_FALSE(publisher.Publish("d", doc, "not a rule line\n").ok());
  EXPECT_FALSE(publisher.Publish("d", doc, "+ alice not-an-xpath\n").ok());
}

TEST(RuleSetTest, TextRoundTrips) {
  std::string text =
      "# comment line\n"
      "+ alice //meeting\n"
      "- bob //note[visibility=\"private\"]\n"
      "+ carol /agenda/member\n";
  auto set = core::RuleSet::ParseText(text);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set.value().size(), 3u);
  // Text round-trip.
  auto again = core::RuleSet::ParseText(set.value().ToText());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().ToText(), set.value().ToText());
}

TEST(RuleSetTest, ParseErrors) {
  EXPECT_FALSE(core::RuleSet::ParseText("* alice //x\n").ok());
  EXPECT_FALSE(core::RuleSet::ParseText("+ alice\n").ok());
  EXPECT_FALSE(core::RuleSet::ParseText("+\n").ok());
  EXPECT_FALSE(core::RuleSet::ParseText("+ alice not xpath [\n").ok());
  EXPECT_TRUE(core::RuleSet::ParseText("").ok());
  EXPECT_TRUE(core::RuleSet::ParseText("\n\n# only comments\n").ok());
}

// Heap blocks a parsed rule set made: its rule list, every string too
// long for the small-string buffer, and for each step or predicate list
// one block per doubling as push_back grew it (capacity 1, 2, 4, ...).
size_t OwnedBlocks(const std::string& s) {
  return s.capacity() > std::string().capacity() ? 1 : 0;
}
size_t GrowthBlocks(size_t capacity) {
  size_t n = 0;
  for (size_t c = capacity; c > 0; c /= 2) ++n;
  return n;
}
size_t OwnedBlocks(const std::vector<xpath::Step>& steps) {
  size_t n = GrowthBlocks(steps.capacity());
  for (const xpath::Step& step : steps) {
    n += OwnedBlocks(step.tag) + GrowthBlocks(step.predicates.capacity());
    for (const xpath::Predicate& p : step.predicates) {
      n += OwnedBlocks(p.path.steps) + OwnedBlocks(p.literal);
    }
  }
  return n;
}

// The owner parses the whole policy on every publish and update. The parse
// reads lines in place and sizes the rule list once, so it allocates only
// the blocks the parsed set holds and the growth of its step and predicate
// lists: no line copies, no stream.
TEST(RuleSetTest, ParseAllocatesOnlyWhatTheRulesOwn) {
  const scengen::GeneratedScenario scenario =
      scengen::BuildScenario(scengen::EHealthMobilitySpec());
  const std::string& text = scenario.docs.front().rules_text;
  Result<core::RuleSet> parsed = Status::Internal("not run");
  const size_t allocations =
      CountAllocations([&] { parsed = core::RuleSet::ParseText(text); });
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const core::RuleSet& set = parsed.value();
  EXPECT_GE(set.size(), 30u);
  size_t owned = 1;  // the rule list
  for (const core::AccessRule& rule : set.rules()) {
    owned += OwnedBlocks(rule.subject) + OwnedBlocks(rule.object_text) +
             OwnedBlocks(rule.object.steps);
  }
  EXPECT_EQ(allocations, owned) << set.size() << " rules";
}

TEST(RuleSetTest, SubjectsInInsertionOrder) {
  auto set = core::RuleSet::ParseText(
                 "+ bob //a\n+ alice //b\n- bob //c\n")
                 .value();
  auto subjects = set.Subjects();
  ASSERT_EQ(subjects.size(), 2u);
  EXPECT_EQ(subjects[0], "bob");
  EXPECT_EQ(subjects[1], "alice");
  EXPECT_EQ(set.ForSubject("bob").size(), 2u);
  EXPECT_EQ(set.ForSubject("nobody").size(), 0u);
}

}  // namespace
}  // namespace csxa
