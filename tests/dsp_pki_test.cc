// PKI registry tests, rule-set round-trips and the publisher facade. The
// DSP backends' protocol suite runs in transport_test.cc.

#include <gtest/gtest.h>

#include "core/rule.h"
#include "dsp/store.h"
#include "pki/registry.h"
#include "proxy/publisher.h"
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

TEST(RuleSetTest, TextAndBinaryRoundTrips) {
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
  // Binary round-trip.
  ByteWriter w;
  set.value().EncodeTo(&w);
  ByteReader r(w.bytes());
  auto decoded = core::RuleSet::DecodeFrom(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().ToText(), set.value().ToText());
}

TEST(RuleSetTest, ParseErrors) {
  EXPECT_FALSE(core::RuleSet::ParseText("* alice //x\n").ok());
  EXPECT_FALSE(core::RuleSet::ParseText("+ alice\n").ok());
  EXPECT_FALSE(core::RuleSet::ParseText("+\n").ok());
  EXPECT_FALSE(core::RuleSet::ParseText("+ alice not xpath [\n").ok());
  EXPECT_TRUE(core::RuleSet::ParseText("").ok());
  EXPECT_TRUE(core::RuleSet::ParseText("\n\n# only comments\n").ok());
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
