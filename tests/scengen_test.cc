// The first-class generated scenarios, end to end: the IoT fleet (a
// thousand small capability documents) and the e-health mobility workload
// (deep folders, churning subscriber sets, heavy policy-update mix) run
// through the full replicated serving stack under a scripted fault
// schedule — and complete with zero failed operations and zero stale
// serves, the same acceptance bar the canonical load tests hold.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/rule_envelope.h"
#include "dsp/store.h"
#include "pki/registry.h"
#include "proxy/publisher.h"
#include "proxy/terminal.h"
#include "scengen/publish.h"
#include "scengen/scenario.h"
#include "scengen/spec.h"
#include "workload/load.h"

namespace csxa {
namespace {

// The fault schedule both scenario runs share: one replica crashes and
// heals, another partitions and heals (windows disjoint — see
// fault_test.cc), with sprinkled lost responses for the retry edge.
workload::FaultPlan TurbulentPlan() {
  workload::FaultPlan plan;
  plan.enabled = true;
  plan.crash_replica = 1;
  plan.crash_at_op = 5;
  plan.crash_heal_at_op = 14;
  plan.partition_replica = 2;
  plan.partition_at_op = 18;
  plan.partition_heal_at_op = 30;
  plan.timeout_probability = 0.05;
  return plan;
}

TEST(ScenGenCatalog, IoTFleetIsAThousandSmallDocuments) {
  const scengen::ScenarioSpec spec = scengen::IoTFleetSpec();
  EXPECT_GE(spec.documents, 1000u);
  EXPECT_EQ(spec.doc.profile, xml::DocProfile::kIoT);
  EXPECT_LE(spec.doc.elements, 64u);  // small by design

  const scengen::GeneratedScenario gen = scengen::BuildScenario(spec);
  ASSERT_GE(gen.docs.size(), 1000u);
  // Spot-check the fleet: real device documents, parseable policies,
  // query-safe subjects.
  for (size_t d : {size_t{0}, size_t{511}, gen.docs.size() - 1}) {
    const scengen::ScenarioDoc& doc = gen.docs[d];
    xml::DomDocument dom = gen.Materialize(doc);
    ASSERT_NE(dom.root(), nullptr);
    EXPECT_EQ(dom.root()->tag(), "device");
    EXPECT_FALSE(doc.subjects.empty());
    EXPECT_TRUE(core::RuleSet::ParseText(doc.rules_text).ok());
  }
}

TEST(ScenGenCatalog, EHealthMobilityIsDeepAndUpdateHeavy) {
  const scengen::ScenarioSpec spec = scengen::EHealthMobilitySpec();
  EXPECT_EQ(spec.doc.profile, xml::DocProfile::kHospital);
  EXPECT_GE(spec.doc.folder_depth, 2u);          // deep patient folders
  EXPECT_GE(spec.churn.update_fraction, 0.2);    // ≥20% policy updates
  EXPECT_GT(spec.churn.subject_churn, 0.0);      // subscriber churn on

  const scengen::GeneratedScenario gen = scengen::BuildScenario(spec);
  ASSERT_FALSE(gen.docs.empty());
  // Deep folders actually materialize: the episode chain appears.
  const std::string bytes = gen.Materialize(gen.docs[0]).Serialize();
  EXPECT_NE(bytes.find("<episode>"), std::string::npos);
  // Churn actually rotates subscribers between consecutive revisions.
  EXPECT_NE(gen.RulesRevision(0, 0), gen.RulesRevision(0, 1));
}

// The size of the single sealed record the rule envelope replaced: IV and
// MAC, then CBC over the version, the count and every rule's sign,
// length-prefixed subject and object, padded to a whole block.
size_t SingleRecordSize(const core::RuleSet& rules) {
  size_t plain = 8 + 4;
  for (const core::AccessRule& r : rules.rules()) {
    plain += 1 + 4 + r.subject.size() + 4 + r.object_text.size();
  }
  return 16 + 32 + (plain / 16 + 1) * 16;
}

// Every rule set of the catalog, as the DSP would store it: no larger than
// the single record it replaced, and naming no subject in clear. Names
// shorter than 4 bytes (the generated "s0", "m12") are left out: a name
// that short turns up by chance in a kilobyte of ciphertext.
TEST(ScenGenCatalog, RuleEnvelopesDoNotGrowAndNameNoSubject) {
  Rng rng(91);
  const crypto::DocCipher cipher =
      crypto::DocCipher::For(crypto::SymmetricKey::Generate(&rng));
  size_t checked = 0;
  size_t named = 0;
  auto check = [&](const std::string& text, const std::string& where) {
    const core::RuleSet rules = core::RuleSet::ParseText(text).value();
    const Bytes envelope =
        core::SealRuleEnvelope(cipher, rules, /*version=*/1, &rng);
    EXPECT_LE(envelope.size(), SingleRecordSize(rules)) << where;
    for (const std::string& subject : rules.Subjects()) {
      if (subject.size() < 4) continue;
      ++named;
      EXPECT_EQ(std::search(envelope.begin(), envelope.end(), subject.begin(),
                            subject.end()),
                envelope.end())
          << subject << " in " << where;
    }
    ++checked;
  };
  for (const scengen::ScenarioSpec& spec :
       {scengen::IoTFleetSpec(), scengen::EHealthMobilitySpec()}) {
    const scengen::GeneratedScenario gen = scengen::BuildScenario(spec);
    for (const scengen::ScenarioDoc& doc : gen.docs) {
      for (uint64_t revision : {0, 1}) {
        check(gen.RulesRevision(doc.index, revision),
              spec.name + " " + doc.doc_id + " revision " +
                  std::to_string(revision));
      }
    }
  }
  for (const scengen::Scenario& scenario : scengen::AllScenarios()) {
    check(scenario.rules_text, scenario.description);
  }
  EXPECT_GT(checked, 2000u);
  EXPECT_GT(named, checked);
}

TEST(ScenGenPublish, HelperPublishesAndServesACanonicalScenario) {
  dsp::DspServer server;
  pki::KeyRegistry registry;
  proxy::Publisher publisher(&server, &registry, 7);

  const scengen::Scenario scenario = scengen::AgendaScenario();
  auto pub = scengen::PublishScenarioDocument(&publisher, scenario, "agenda-0",
                                              /*elements=*/120, /*seed=*/3);
  ASSERT_TRUE(pub.ok()) << pub.status().ToString();
  EXPECT_FALSE(pub.value().subjects.empty());
  EXPECT_GT(pub.value().container_bytes, 0u);

  // A granted subject can provision and run the scenario's own queries.
  proxy::Terminal terminal(pub.value().subjects[0], soe::CardProfile::EGate(),
                           &server, &registry);
  ASSERT_TRUE(terminal.Provision("agenda-0").ok());
  proxy::QueryOptions qopt;
  qopt.query = scenario.queries[0].second;
  EXPECT_TRUE(terminal.Query("agenda-0", qopt).ok());
}

// --- The acceptance runs ----------------------------------------------------

TEST(ScenGenLoadTest, IoTFleetZeroFailuresUnderFaults) {
  workload::LoadOptions opt;
  opt.sessions = 6;
  opt.ops_per_session = 6;
  opt.shards = 4;
  opt.workers = 4;
  opt.seed = 42;
  opt.replicas = 3;
  opt.retry_attempts = 8;
  opt.faults = TurbulentPlan();
  opt.spec = scengen::IoTFleetSpec();

  workload::LoadReport report = workload::RunLoad(opt);
  // Turbulence below, calm above: the fleet absorbs the crash, the
  // partition and the lost responses without a single failed operation
  // or stale serve.
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.stale_reads_served, 0u);
  EXPECT_EQ(report.retry_exhausted, 0u);
  EXPECT_GT(report.queries, 0u);
  EXPECT_GT(report.faults_injected, 0u);
  EXPECT_GT(report.throughput_ops_per_sec, 0.0);
  // A thousand-document fleet spread over the shards: every shard served.
  for (uint64_t n : report.shard_requests) EXPECT_GT(n, 0u);
}

TEST(ScenGenLoadTest, EHealthMobilityZeroFailuresUnderFaults) {
  workload::LoadOptions opt;
  opt.sessions = 8;
  opt.ops_per_session = 8;
  opt.shards = 2;
  opt.workers = 2;
  opt.seed = 1234;
  opt.replicas = 3;
  opt.retry_attempts = 8;
  opt.faults = TurbulentPlan();
  opt.spec = scengen::EHealthMobilitySpec();

  workload::LoadReport report = workload::RunLoad(opt);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.stale_reads_served, 0u);
  EXPECT_EQ(report.retry_exhausted, 0u);
  EXPECT_GT(report.queries, 0u);
  // The update-heavy mix actually happened, and committed policy updates
  // fanned out to the shared cache.
  EXPECT_GT(report.updates, 0u);
  EXPECT_GT(report.notifications_delivered, 0u);
}

// Replaying the same spec + seed is the same experiment: identical op
// counts, identical modeled outcomes (the load harness is deterministic
// given options; wall time excluded).
TEST(ScenGenLoadTest, SpecRunsAreReproducible) {
  workload::LoadOptions opt;
  opt.sessions = 4;
  opt.ops_per_session = 5;
  opt.shards = 2;
  opt.workers = 2;
  opt.seed = 9;
  scengen::ScenarioSpec spec = scengen::EHealthMobilitySpec();
  spec.documents = 4;   // keep the reproducibility probe quick
  spec.doc.elements = 120;
  opt.spec = spec;

  workload::LoadReport a = workload::RunLoad(opt);
  workload::LoadReport b = workload::RunLoad(opt);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.publishes, b.publishes);
  EXPECT_EQ(a.failures, 0u);
  EXPECT_EQ(b.failures, 0u);
  EXPECT_EQ(a.p50_latency_ms, b.p50_latency_ms);
}

}  // namespace
}  // namespace csxa
