// The planner differential suite: the same query fetched per chunk, on a
// first (learning) run, along an owner-computed plan and along the plan
// the terminal learned must deliver byte-identical views at byte-identical
// card transfer/crypto cost — only the round-trip count (and thus modeled
// latency) may move, and it must move monotonically: planned <= first run
// <= per-chunk. Plans are advisory: wrong, stale, hostile or absent plans
// cost round trips, never correctness.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/rule.h"
#include "dsp/service.h"
#include "dsp/store.h"
#include "pki/registry.h"
#include "proxy/publisher.h"
#include "proxy/terminal.h"
#include "skipindex/codec.h"
#include "soe/prefetch.h"
#include "tagged_chunks.h"
#include "xml/generator.h"
#include "xpath/parser.h"

namespace csxa {
namespace {

using proxy::Publisher;
using proxy::QueryOptions;
using proxy::QueryResult;
using proxy::Terminal;
using soe::CardProfile;
using soe::FetchPlan;
using soe::PlannedProvider;
using skipindex::ChunkRun;

constexpr uint32_t kChunkSize = 128;

xml::DomDocument MakeDoc(size_t elements, uint64_t seed) {
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kHospital;
  gp.target_elements = elements;
  gp.seed = seed;
  gp.text_avg_len = 48;
  return xml::GenerateDocument(gp);
}

// Card transfer and crypto cost must not depend on the fetch schedule:
// planned/prefetched-but-unread chunks stay in the terminal.
void ExpectSameCardCost(const QueryResult& a, const QueryResult& b) {
  EXPECT_EQ(a.xml, b.xml);
  EXPECT_EQ(a.card.bytes_transferred, b.card.bytes_transferred);
  EXPECT_EQ(a.card.bytes_decrypted, b.card.bytes_decrypted);
  EXPECT_DOUBLE_EQ(a.card.crypto_seconds, b.card.crypto_seconds);
  EXPECT_DOUBLE_EQ(a.card.transfer_seconds, b.card.transfer_seconds);
}

// The owner-side planning pass over the same (deterministic) encoding the
// publisher sealed: what a publisher would ship next to the document.
FetchPlan OwnerPlan(const xml::DomDocument& doc, const std::string& rules_text,
                    const std::string& subject, const std::string& query,
                    bool use_skip = true) {
  Bytes encoded =
      skipindex::EncodeDocument(doc, skipindex::EncodeOptions{}).value();
  core::RuleSet rules = core::RuleSet::ParseText(rules_text).value();
  xpath::PathExpr parsed;
  const xpath::PathExpr* qp = nullptr;
  if (!query.empty()) {
    parsed = xpath::ParsePath(query).value();
    qp = &parsed;
  }
  return soe::ComputeFetchPlan(encoded, kChunkSize, rules.ForSubject(subject),
                               qp, use_skip)
      .value();
}

// --- The headline differential ---------------------------------------------

TEST(FetchPlanTest, PerChunkVsFirstRunVsPlannedDifferential) {
  dsp::DspServer dsp;
  pki::KeyRegistry registry;
  Publisher publisher(&dsp, &registry, 21);
  proxy::PublishOptions popt;
  popt.chunk_size = kChunkSize;
  xml::DomDocument doc = MakeDoc(3000, 5);
  const std::string rules = "+ u //patient/admin\n";  // skip-heavy
  ASSERT_TRUE(publisher.Publish("h", doc, rules, popt).ok());

  auto fresh = [&] {
    auto t = std::make_unique<Terminal>("u", CardProfile::EGate(), &dsp,
                                        &registry);
    EXPECT_TRUE(t->Provision("h").ok());
    return t;
  };

  // A one-chunk window on a first run is per-chunk fetching: one trip per
  // card request.
  QueryOptions one;
  one.max_prefetch = 1;
  auto per_chunk = fresh()->Query("h", one);
  ASSERT_TRUE(per_chunk.ok()) << per_chunk.status().ToString();
  // A first run on the default window, which learns the plan.
  auto learner = fresh();
  auto first_run = learner->Query("h", QueryOptions{});
  ASSERT_TRUE(first_run.ok()) << first_run.status().ToString();
  EXPECT_TRUE(first_run.value().plan_learned);
  // The owner-computed plan.
  FetchPlan plan = OwnerPlan(doc, rules, "u", "");
  ASSERT_FALSE(plan.runs.empty());
  QueryOptions owner;
  owner.plan = &plan;
  auto planned = fresh()->Query("h", owner);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  // The learned plan: the same query again on the learning terminal.
  auto learned = learner->Query("h", QueryOptions{});
  ASSERT_TRUE(learned.ok()) << learned.status().ToString();
  EXPECT_FALSE(learned.value().plan_learned);

  // Byte-identical views, byte-identical card transfer/crypto.
  ExpectSameCardCost(per_chunk.value(), first_run.value());
  ExpectSameCardCost(per_chunk.value(), planned.value());
  ExpectSameCardCost(per_chunk.value(), learned.value());

  // Monotonically non-increasing round trips: planned <= first run <=
  // per-chunk — and strictly better at both steps on this skip-heavy
  // workload.
  EXPECT_LT(first_run.value().dsp_round_trips,
            per_chunk.value().dsp_round_trips);
  EXPECT_LT(planned.value().dsp_round_trips,
            first_run.value().dsp_round_trips);
  EXPECT_LE(learned.value().dsp_round_trips, planned.value().dsp_round_trips);
  EXPECT_LE(planned.value().card.round_trip_seconds,
            first_run.value().card.round_trip_seconds);
  EXPECT_LE(planned.value().card.total_seconds,
            first_run.value().card.total_seconds);

  // The acceptance bar: skip-heavy planned round trips (open + fetches)
  // within 2x the number of contiguous needed ranges. The whole plan is
  // in fact ONE multi-span trip, owner-computed or learned.
  EXPECT_EQ(planned.value().plan_ranges, plan.runs.size());
  EXPECT_EQ(planned.value().window_trips, 0u);
  EXPECT_EQ(planned.value().plan_trips, 1u);
  EXPECT_LE(planned.value().dsp_round_trips, 2 * plan.runs.size());
  EXPECT_EQ(planned.value().dsp_round_trips, 2u);  // open + one batch
  EXPECT_EQ(learned.value().window_trips, 0u);
  EXPECT_EQ(learned.value().dsp_round_trips, 2u);
}

TEST(FetchPlanTest, FullScanPlanIsOneContiguousRun) {
  // A subject authorized for everything skips nothing: the plan collapses
  // to a single run covering the container, and the planned session is
  // open + one trip.
  dsp::DspServer dsp;
  pki::KeyRegistry registry;
  Publisher publisher(&dsp, &registry, 22);
  proxy::PublishOptions popt;
  popt.chunk_size = kChunkSize;
  xml::DomDocument doc = MakeDoc(800, 6);
  const std::string rules = "+ u /hospital\n";
  ASSERT_TRUE(publisher.Publish("f", doc, rules, popt).ok());

  FetchPlan plan = OwnerPlan(doc, rules, "u", "");
  ASSERT_EQ(plan.runs.size(), 1u);
  EXPECT_EQ(plan.runs[0].first, 0u);

  Terminal t("u", CardProfile::EGate(), &dsp, &registry);
  ASSERT_TRUE(t.Provision("f").ok());
  QueryOptions q;
  q.plan = &plan;
  auto planned = t.Query("f", q);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_EQ(planned.value().dsp_round_trips, 2u);
  EXPECT_EQ(planned.value().window_trips, 0u);

  Terminal w("u", CardProfile::EGate(), &dsp, &registry);
  ASSERT_TRUE(w.Provision("f").ok());
  auto first_run = w.Query("f", QueryOptions{});
  ASSERT_TRUE(first_run.ok());
  ExpectSameCardCost(first_run.value(), planned.value());
}

// --- Learned plans (the terminal's learn-on-first-run path) -----------------

TEST(FetchPlanTest, TerminalLearnsPlanAndSecondQueryRidesIt) {
  dsp::DspServer dsp;
  pki::KeyRegistry registry;
  Publisher publisher(&dsp, &registry, 23);
  proxy::PublishOptions popt;
  popt.chunk_size = kChunkSize;
  ASSERT_TRUE(
      publisher.Publish("h", MakeDoc(2000, 7), "+ u //patient/admin\n", popt)
          .ok());

  Terminal t("u", CardProfile::EGate(), &dsp, &registry);
  ASSERT_TRUE(t.Provision("h").ok());
  QueryOptions q;  // no plan supplied

  // First run: on the miss window, records the plan.
  auto first = t.Query("h", q);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first.value().plan_learned);
  EXPECT_EQ(first.value().plan_trips, 0u);
  EXPECT_GT(first.value().plan_ranges, 0u);
  EXPECT_EQ(t.cached_plans(), 1u);

  // Second identical query rides the learned plan: same view, same card
  // cost, strictly fewer round trips, no misses (the plan IS the card's
  // own access pattern).
  auto second = t.Query("h", q);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE(second.value().plan_learned);
  EXPECT_EQ(second.value().plan_trips, 1u);
  EXPECT_EQ(second.value().window_trips, 0u);
  ExpectSameCardCost(first.value(), second.value());
  EXPECT_LT(second.value().dsp_round_trips, first.value().dsp_round_trips);
  EXPECT_EQ(t.cached_plans(), 1u);

  // A different query misses the cache and learns its own plan.
  QueryOptions other = q;
  other.query = "//patient/admin";
  auto third = t.Query("h", other);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_TRUE(third.value().plan_learned);
  EXPECT_EQ(t.cached_plans(), 2u);
}

TEST(FetchPlanTest, PolicyUpdateInvalidatesLearnedPlans) {
  dsp::DspServer dsp;
  pki::KeyRegistry registry;
  Publisher publisher(&dsp, &registry, 24);
  proxy::PublishOptions popt;
  popt.chunk_size = kChunkSize;
  auto receipt = publisher.Publish("folder", MakeDoc(1200, 8),
                                   "+ doctor //patient\n", popt);
  ASSERT_TRUE(receipt.ok());

  Terminal t("doctor", CardProfile::EGate(), &dsp, &registry);
  ASSERT_TRUE(t.Provision("folder").ok());
  QueryOptions q;
  auto before = t.Query("folder", q);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before.value().plan_learned);
  EXPECT_EQ(t.cached_plans(), 1u);

  // The rules version bumps: the cached plan can never match again and
  // must not be consulted — the next query re-learns under the new
  // policy and delivers the restricted view.
  ASSERT_TRUE(publisher
                  .UpdateRules("folder", receipt.value().key,
                               "+ doctor //patient\n- doctor //patient/ssn\n")
                  .ok());
  auto after = t.Query("folder", q);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after.value().plan_learned);
  EXPECT_EQ(t.cached_plans(), 1u);  // the stale entry was dropped
  EXPECT_EQ(after.value().xml.find("<ssn>"), std::string::npos);
  EXPECT_NE(before.value().xml.find("<ssn>"), std::string::npos);

  // And the re-learned plan serves the new view with no misses.
  auto replay = t.Query("folder", q);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().window_trips, 0u);
  EXPECT_EQ(replay.value().xml, after.value().xml);
}

TEST(FetchPlanTest, DefaultOptionsLearnThenRidePlan) {
  // Planning is the terminal's only path: plain QueryOptions{} learn on
  // the first run and ride the plan from the second.
  dsp::DspServer dsp;
  pki::KeyRegistry registry;
  Publisher publisher(&dsp, &registry, 26);
  proxy::PublishOptions popt;
  popt.chunk_size = kChunkSize;
  auto receipt = publisher.Publish("h", MakeDoc(2000, 10),
                                   "+ u //patient/admin\n", popt);
  ASSERT_TRUE(receipt.ok());

  Terminal t("u", CardProfile::EGate(), &dsp, &registry);
  ASSERT_TRUE(t.Provision("h").ok());
  auto first = t.Query("h", QueryOptions{});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first.value().plan_learned);
  EXPECT_GT(first.value().dsp_round_trips, 2u);

  auto second = t.Query("h", QueryOptions{});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE(second.value().plan_learned);
  EXPECT_EQ(second.value().dsp_round_trips, 2u);  // open + one planned batch
  ExpectSameCardCost(first.value(), second.value());

  // A policy update bumps the rules version: the next query re-learns.
  ASSERT_TRUE(publisher
                  .UpdateRules("h", receipt.value().key,
                               "+ u //patient/admin\n- u //admin/billing\n")
                  .ok());
  auto relearn = t.Query("h", QueryOptions{});
  ASSERT_TRUE(relearn.ok()) << relearn.status().ToString();
  EXPECT_TRUE(relearn.value().plan_learned);
  EXPECT_EQ(relearn.value().plan_trips, 0u);
}

// --- Adversarial / degenerate plans: advisory, never authoritative ----------

TEST(FetchPlanTest, WrongPlansCostTripsNeverCorrectness) {
  dsp::DspServer dsp;
  pki::KeyRegistry registry;
  Publisher publisher(&dsp, &registry, 25);
  proxy::PublishOptions popt;
  popt.chunk_size = kChunkSize;
  xml::DomDocument doc = MakeDoc(1500, 9);
  const std::string rules = "+ u //patient/admin\n";
  ASSERT_TRUE(publisher.Publish("h", doc, rules, popt).ok());

  Terminal reference("u", CardProfile::EGate(), &dsp, &registry);
  ASSERT_TRUE(reference.Provision("h").ok());
  auto first_run = reference.Query("h", QueryOptions{});
  ASSERT_TRUE(first_run.ok());

  FetchPlan good = OwnerPlan(doc, rules, "u", "");
  std::vector<std::pair<const char*, FetchPlan>> hostile;
  hostile.emplace_back("empty", FetchPlan{});
  {
    FetchPlan shifted = good;  // systematically off by a few chunks
    for (ChunkRun& r : shifted.runs) r.first += 3;
    hostile.emplace_back("shifted", std::move(shifted));
  }
  {
    FetchPlan eof;  // every run far past the container end
    eof.runs = {ChunkRun{100000, 5}, ChunkRun{200000, 1}};
    hostile.emplace_back("past-eof", std::move(eof));
  }
  {
    FetchPlan messy = good;  // duplicated + overlapping + zero-count runs
    messy.runs.insert(messy.runs.end(), good.runs.begin(), good.runs.end());
    messy.runs.push_back(ChunkRun{0, 0});
    if (!good.runs.empty()) {
      messy.runs.push_back(ChunkRun{good.runs[0].first, good.runs[0].count + 2});
    }
    hostile.emplace_back("overlapping", std::move(messy));
  }

  for (auto& [label, plan] : hostile) {
    Terminal t("u", CardProfile::EGate(), &dsp, &registry);
    ASSERT_TRUE(t.Provision("h").ok()) << label;
    QueryOptions q;
    q.plan = &plan;
    auto result = t.Query("h", q);
    ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
    ExpectSameCardCost(first_run.value(), result.value());
  }
}

// --- FetchPlan / PlannedProvider unit coverage ------------------------------

TEST(FetchPlanTest, NormalizeSortsMergesAndDropsEmpties) {
  FetchPlan plan;
  plan.runs = {ChunkRun{8, 2}, ChunkRun{0, 2}, ChunkRun{2, 1},  // adjacent
               ChunkRun{1, 3},                                  // overlapping
               ChunkRun{5, 0},                                  // empty
               ChunkRun{10, 1}};                                // adjacent to 8+2
  plan.Normalize();
  ASSERT_EQ(plan.runs.size(), 2u);
  EXPECT_EQ(plan.runs[0].first, 0u);
  EXPECT_EQ(plan.runs[0].count, 4u);  // [0,4) from {0,2}+{2,1}+{1,3}
  EXPECT_EQ(plan.runs[1].first, 8u);
  EXPECT_EQ(plan.runs[1].count, 3u);  // [8,11) from {8,2}+{10,1}
  EXPECT_EQ(plan.total_chunks(), 7u);
  EXPECT_TRUE(plan.Covers(0));
  EXPECT_TRUE(plan.Covers(3));
  EXPECT_FALSE(plan.Covers(4));
  EXPECT_FALSE(plan.Covers(7));
  EXPECT_TRUE(plan.Covers(10));
  EXPECT_FALSE(plan.Covers(11));
}

TEST(FetchPlanTest, FromChunkSequenceCoalescesObservedRequests) {
  FetchPlan plan = FetchPlan::FromChunkSequence({0, 1, 2, 7, 8, 2, 15});
  ASSERT_EQ(plan.runs.size(), 3u);
  EXPECT_EQ(plan.runs[0].first, 0u);
  EXPECT_EQ(plan.runs[0].count, 3u);
  EXPECT_EQ(plan.runs[1].first, 7u);
  EXPECT_EQ(plan.runs[1].count, 2u);
  EXPECT_EQ(plan.runs[2].first, 15u);
  EXPECT_EQ(plan.runs[2].count, 1u);
}

TEST(FetchPlanTest, PlannedProviderServesPlanInOneTripAndFallsBackOnMisses) {
  fakes::TaggedChunkProvider backend(16);
  FetchPlan plan;
  plan.runs = {ChunkRun{0, 3}, ChunkRun{8, 2}};
  PlannedProvider provider(&backend, 16, plan);

  // First planned chunk pulls the WHOLE plan in one multi-span trip; the
  // rest of the plan is served from the buffer.
  for (uint32_t c : {0u, 1u, 2u, 8u, 9u}) {
    auto chunk = fakes::FetchOne(provider, c);
    ASSERT_TRUE(chunk.ok()) << c;
    EXPECT_EQ(chunk.value().ciphertext[0], static_cast<uint8_t>(c)) << c;
  }
  EXPECT_EQ(backend.span_batches, 1u);
  EXPECT_EQ(provider.round_trips(), 1u);
  EXPECT_EQ(provider.planned_trips(), 1u);
  EXPECT_EQ(provider.window_trips(), 0u);
  EXPECT_EQ(provider.chunks_fetched(), 5u);

  // A chunk outside the plan falls back to a window fetch: one ordinary
  // trip, correct payload.
  auto miss = fakes::FetchOne(provider, 5);
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss.value().ciphertext[0], 5u);
  EXPECT_EQ(provider.window_trips(), 1u);
  EXPECT_EQ(provider.round_trips(), 2u);

  // Out of range propagates the backend's error (through the window).
  EXPECT_FALSE(fakes::FetchOne(provider, 99).ok());
}

TEST(FetchPlanTest, PlannedProviderMixesPlanWithWindowMisses) {
  fakes::TaggedChunkProvider backend(16);
  FetchPlan plan;
  plan.runs = {ChunkRun{0, 3}, ChunkRun{8, 2}};
  PlannedProvider provider(&backend, 16, plan, /*max_prefetch=*/2);

  // 0-2 and 8-9 ride the one planned trip; 4, 6 and 12 each miss and
  // fetch a two-chunk window, which answers 5 and 7 from the buffer.
  const std::vector<uint32_t> card = {0, 1, 2, 4, 5, 6, 7, 8, 9, 12};
  for (uint32_t c : card) {
    auto chunk = fakes::FetchOne(provider, c);
    ASSERT_TRUE(chunk.ok()) << c;
    EXPECT_EQ(chunk.value().ciphertext[0], static_cast<uint8_t>(c)) << c;
  }
  EXPECT_EQ(backend.span_batches, 1u);
  EXPECT_EQ(provider.planned_trips(), 1u);
  EXPECT_EQ(provider.window_trips(), 3u);
  EXPECT_EQ(provider.round_trips(), 4u);
  EXPECT_EQ(provider.requested(), card);
}

TEST(FetchPlanTest, PlannedProviderClampsHostileGeometry) {
  fakes::TaggedChunkProvider backend(8);
  FetchPlan plan;
  plan.runs = {ChunkRun{6, 10},      // straddles the end: clamp to [6,8)
               ChunkRun{50, 4},      // entirely past the end: dropped
               ChunkRun{0, 1}};
  PlannedProvider provider(&backend, 8, plan);
  EXPECT_EQ(provider.plan().runs.size(), 2u);
  EXPECT_EQ(provider.plan().total_chunks(), 3u);

  for (uint32_t c : {0u, 6u, 7u}) {
    auto chunk = fakes::FetchOne(provider, c);
    ASSERT_TRUE(chunk.ok()) << c;
    EXPECT_EQ(chunk.value().ciphertext[0], static_cast<uint8_t>(c));
  }
  EXPECT_EQ(provider.window_trips(), 0u);
  EXPECT_EQ(backend.span_batches, 1u);
}

}  // namespace
}  // namespace csxa
