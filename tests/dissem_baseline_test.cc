// Dissemination channel tests (push application) and baseline tests
// (subset encryption, trusted server).

#include <gtest/gtest.h>

#include "baseline/server_acl.h"
#include "baseline/subset_encryption.h"
#include "core/ref_evaluator.h"
#include "dissem/channel.h"
#include "scengen/scenario.h"
#include "xml/generator.h"
#include "xpath/parser.h"

namespace csxa {
namespace {

using dissem::Channel;
using dissem::ChannelOptions;
using dissem::Subscriber;

xml::DomDocument MakeFeed(size_t elements, uint64_t seed) {
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kNewsFeed;
  gp.target_elements = elements;
  gp.seed = seed;
  return xml::GenerateDocument(gp);
}

TEST(ChannelTest, DeliveriesMatchPerSubjectOracle) {
  auto scenario = scengen::NewsFeedScenario();
  Channel channel("feed", scenario.rules_text, ChannelOptions{}, 99);
  Subscriber child("child", soe::CardProfile::EGate());
  Subscriber teen("teen", soe::CardProfile::EGate());
  Subscriber premium("premium", soe::CardProfile::EGate());
  channel.Subscribe(&child);
  channel.Subscribe(&teen);
  channel.Subscribe(&premium);

  auto item = MakeFeed(200, 31);
  auto report = channel.Publish(item);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().deliveries.size(), 3u);

  auto rules = core::RuleSet::ParseText(scenario.rules_text).value();
  for (const auto& d : report.value().deliveries) {
    auto ref = core::BuildAuthorizedView(item, rules.ForSubject(d.subscriber),
                                         nullptr);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(d.view_xml, ref.value().Serialize()) << d.subscriber;
  }
  // The child profile receives strictly less than premium.
  const auto& dv = report.value().deliveries;
  EXPECT_LT(dv[0].view_xml.size(), dv[2].view_xml.size());
}

TEST(ChannelTest, PushChargesBroadcastToEveryCard) {
  ChannelOptions copt;
  copt.chunk_size = 128;  // fine-grained so skips clear whole chunks
  // Subscriber b only reads channel genres: whole <item> subtrees (far
  // larger than a chunk) are skipped contiguously.
  Channel channel("feed", "+ a /feed\n+ b //channel/genre\n", copt, 7);
  Subscriber a("a", soe::CardProfile::EGate());
  Subscriber b("b", soe::CardProfile::EGate());
  channel.Subscribe(&a);
  channel.Subscribe(&b);
  auto report = channel.Publish(MakeFeed(150, 5));
  ASSERT_TRUE(report.ok());
  for (const auto& d : report.value().deliveries) {
    EXPECT_GE(d.stats.bytes_transferred, report.value().broadcast_wire_bytes)
        << d.subscriber;
  }
  // The selective subscriber decrypts less than the full one.
  EXPECT_LT(report.value().deliveries[1].stats.bytes_decrypted,
            report.value().deliveries[0].stats.bytes_decrypted);
}

TEST(ChannelTest, RuleUpdateAffectsNextItem) {
  Channel channel("feed", "+ kid //item\n", ChannelOptions{}, 8);
  Subscriber kid("kid", soe::CardProfile::EGate());
  channel.Subscribe(&kid);
  auto before = channel.Publish(MakeFeed(100, 6));
  ASSERT_TRUE(before.ok());
  EXPECT_NE(before.value().deliveries[0].view_xml, "");

  ASSERT_TRUE(channel.UpdateRules("+ kid //item[rating=\"G\"]\n").ok());
  auto after = channel.Publish(MakeFeed(100, 6));
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after.value().deliveries[0].view_xml.size(),
            before.value().deliveries[0].view_xml.size());
}

TEST(ChannelTest, RejectsBadRuleUpdate) {
  Channel channel("feed", "+ kid //item\n", ChannelOptions{}, 9);
  EXPECT_FALSE(channel.UpdateRules("not rules").ok());
}

// --- Subset-encryption baseline -------------------------------------------

TEST(SubsetBaselineTest, PartitionCoversPermittedElements) {
  auto doc = MakeFeed(150, 12);
  auto rules = core::RuleSet::ParseText(
                   "+ child //item[rating=\"G\"]\n+ premium /feed\n")
                   .value();
  Rng rng(1);
  auto store = baseline::SubsetEncryptionStore::Build(&doc, rules, &rng);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const auto& stats = store.value().build_stats();
  EXPECT_GT(stats.class_count, 0u);
  EXPECT_GT(stats.encrypted_bytes, 0u);

  // premium reads everything permitted; child reads a subset of that.
  auto premium = store.value().QueryCost("premium");
  auto child = store.value().QueryCost("child");
  EXPECT_GT(premium.elements_delivered, child.elements_delivered);
  EXPECT_GT(child.elements_delivered, 0u);
  // Unknown subjects read nothing.
  EXPECT_EQ(store.value().QueryCost("nobody").classes_read, 0u);
}

TEST(SubsetBaselineTest, PolicyChangeForcesReencryption) {
  auto doc = MakeFeed(300, 13);
  auto rules_v1 = core::RuleSet::ParseText(
                      "+ child //item[rating=\"G\"]\n+ premium /feed\n")
                      .value();
  Rng rng(2);
  auto store = baseline::SubsetEncryptionStore::Build(&doc, rules_v1, &rng);
  ASSERT_TRUE(store.ok());

  // The parent relaxes the policy: PG items become visible to the child.
  // Elements move between existing classes: re-encryption but no re-keying.
  auto rules_v2 =
      core::RuleSet::ParseText(
          "+ child //item[rating=\"G\"]\n+ child //item[rating=\"PG\"]\n"
          "+ premium /feed\n")
          .value();
  auto change = store.value().ApplyPolicyChange(rules_v2, &rng);
  ASSERT_TRUE(change.ok());
  EXPECT_GT(change.value().elements_moved, 0u);
  EXPECT_GT(change.value().bytes_reencrypted, 0u);

  // A new subject with its own visibility splits classes: now keys must
  // also be redistributed.
  auto rules_v3 =
      core::RuleSet::ParseText(
          "+ child //item[rating=\"G\"]\n+ child //item[rating=\"PG\"]\n"
          "+ teen //item[rating=\"PG13\"]\n+ premium /feed\n")
          .value();
  auto change2 = store.value().ApplyPolicyChange(rules_v3, &rng);
  ASSERT_TRUE(change2.ok());
  EXPECT_GT(change2.value().elements_moved, 0u);
  EXPECT_GT(change2.value().keys_redistributed, 0u);
}

TEST(SubsetBaselineTest, NoOpPolicyChangeIsFree) {
  auto doc = MakeFeed(100, 14);
  auto rules =
      core::RuleSet::ParseText("+ a //item\n").value();
  Rng rng(3);
  auto store = baseline::SubsetEncryptionStore::Build(&doc, rules, &rng);
  ASSERT_TRUE(store.ok());
  auto change = store.value().ApplyPolicyChange(rules, &rng);
  ASSERT_TRUE(change.ok());
  EXPECT_EQ(change.value().elements_moved, 0u);
  EXPECT_EQ(change.value().bytes_reencrypted, 0u);
}

// --- Trusted-server baseline -----------------------------------------------

TEST(ServerBaselineTest, MatchesReferenceView) {
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kHospital;
  gp.target_elements = 200;
  gp.seed = 15;
  auto doc = xml::GenerateDocument(gp);
  std::string rules = "+ doctor //patient\n- doctor //admin\n";
  auto ref_rules = core::RuleSet::ParseText(rules).value();
  auto expected =
      core::BuildAuthorizedView(doc, ref_rules.ForSubject("doctor"), nullptr)
          .value()
          .Serialize();

  baseline::TrustedServerBaseline server;
  ASSERT_TRUE(server.AddDocument("h", std::move(doc), rules).ok());
  auto result = server.Query("h", "doctor", "");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().xml, expected);
  EXPECT_GT(result.value().modeled_seconds, 0.0);
}

TEST(ServerBaselineTest, UnknownDocumentFails) {
  baseline::TrustedServerBaseline server;
  EXPECT_FALSE(server.Query("nope", "u", "").ok());
}

}  // namespace
}  // namespace csxa
