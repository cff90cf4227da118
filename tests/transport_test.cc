// Transport-layer tests for the batch-first dsp::Service protocol: round
// trip accounting of batched vs per-chunk fetches (byte-identical views),
// sharded hash routing, caching revalidation, the miss-window contract
// of soe::PlannedProvider, and malformed chunk replies from the DSP.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "core/ref_evaluator.h"
#include "core/rule.h"
#include "crypto/container.h"
#include "dsp/async.h"
#include "dsp/blockfile.h"
#include "dsp/caching.h"
#include "dsp/durable.h"
#include "dsp/fault.h"
#include "dsp/service.h"
#include "dsp/sharded.h"
#include "dsp/store.h"
#include "pki/registry.h"
#include "proxy/publisher.h"
#include "proxy/terminal.h"
#include "skipindex/codec.h"
#include "soe/prefetch.h"
#include "tagged_chunks.h"
#include "xml/generator.h"

namespace csxa {
namespace {

using proxy::Publisher;
using proxy::QueryOptions;
using proxy::Terminal;
using soe::CardProfile;

xml::DomDocument MakeDoc(size_t elements, uint64_t seed) {
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kHospital;
  gp.target_elements = elements;
  gp.seed = seed;
  gp.text_avg_len = 48;
  return xml::GenerateDocument(gp);
}

// --- Round-trip accounting -------------------------------------------------

TEST(TransportTest, BatchedFetchesCutRoundTripsByteIdentically) {
  dsp::DspServer dsp;
  pki::KeyRegistry registry;
  Publisher publisher(&dsp, &registry, 11);
  proxy::PublishOptions popt;
  popt.chunk_size = 128;  // fine chunks: many fetches, many skips
  ASSERT_TRUE(publisher
                  .Publish("h", MakeDoc(1500, 5),
                           "+ u //patient/admin\n", popt)
                  .ok());

  Terminal per_chunk("u", CardProfile::EGate(), &dsp, &registry);
  ASSERT_TRUE(per_chunk.Provision("h").ok());
  QueryOptions q1;
  q1.max_prefetch = 1;  // every chunk is its own round trip
  auto a = per_chunk.Query("h", q1);
  ASSERT_TRUE(a.ok()) << a.status().ToString();

  Terminal batched("u", CardProfile::EGate(), &dsp, &registry);
  ASSERT_TRUE(batched.Provision("h").ok());
  QueryOptions q8;
  q8.max_prefetch = 8;
  auto b = batched.Query("h", q8);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  // Same delivered view, byte for byte.
  EXPECT_EQ(a.value().xml, b.value().xml);
  // Prefetched-but-unread chunks never cross the card link: transfer and
  // crypto costs are identical — only the round-trip count moves.
  EXPECT_EQ(a.value().card.bytes_transferred, b.value().card.bytes_transferred);
  EXPECT_EQ(a.value().card.bytes_decrypted, b.value().card.bytes_decrypted);
  EXPECT_DOUBLE_EQ(a.value().card.crypto_seconds, b.value().card.crypto_seconds);
  EXPECT_DOUBLE_EQ(a.value().card.transfer_seconds,
                   b.value().card.transfer_seconds);
  // Strictly fewer modeled round trips, hence strictly less modeled time.
  EXPECT_GT(a.value().card.dsp_round_trips, 0u);
  EXPECT_LT(b.value().card.dsp_round_trips, a.value().card.dsp_round_trips);
  EXPECT_LT(b.value().card.round_trip_seconds,
            a.value().card.round_trip_seconds);
  EXPECT_LT(b.value().card.total_seconds, a.value().card.total_seconds);
  EXPECT_LT(b.value().dsp_round_trips, a.value().dsp_round_trips);
}

TEST(TransportTest, OpenDocumentIsOneRoundTrip) {
  dsp::DspServer dsp;
  pki::KeyRegistry registry;
  Publisher publisher(&dsp, &registry, 12);
  ASSERT_TRUE(publisher.Publish("d", MakeDoc(100, 6), "+ u /hospital\n").ok());

  uint64_t before = dsp.stats().requests;
  auto open = dsp.OpenDocument("d");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(dsp.stats().requests, before + 1);
  EXPECT_FALSE(open.value().header.empty());
  EXPECT_FALSE(open.value().sealed_rules.empty());
  EXPECT_EQ(open.value().rules_version, 1u);
}

// --- Sharded backend -------------------------------------------------------

TEST(TransportTest, ShardedRoutingPlacesEachDocOnItsHomeShard) {
  dsp::DspServer s0, s1, s2;
  dsp::ShardedService sharded({&s0, &s1, &s2});
  pki::KeyRegistry registry;
  Publisher publisher(&sharded, &registry, 13);

  const char* ids[] = {"alpha", "bravo", "charlie", "delta", "echo", "fox"};
  for (const char* id : ids) {
    ASSERT_TRUE(publisher.Publish(id, MakeDoc(60, 7), "+ u /hospital\n").ok());
  }
  EXPECT_EQ(s0.size() + s1.size() + s2.size(), 6u);

  // Each document lives on exactly its home shard, and reads route there.
  dsp::DspServer* shards[] = {&s0, &s1, &s2};
  for (const char* id : ids) {
    size_t home = sharded.ShardFor(id);
    uint64_t home_before = shards[home]->stats().requests;
    ASSERT_TRUE(sharded.OpenDocument(id).ok());
    EXPECT_EQ(shards[home]->stats().requests, home_before + 1) << id;
  }

  // The full stack works against a sharded fleet.
  Terminal u("u", CardProfile::EGate(), &sharded, &registry);
  ASSERT_TRUE(u.Provision("alpha").ok());
  auto result = u.Query("alpha", QueryOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().xml.empty());

  // Per-shard request accounting covers every shard that owns documents.
  uint64_t routed = 0;
  for (uint64_t n : sharded.shard_requests()) routed += n;
  EXPECT_GE(routed, 6u);
  EXPECT_EQ(sharded.stats().documents, 6u);
}

TEST(TransportTest, ShardedOpsTouchOnlyTheHomeShard) {
  // Hash routing and nothing else: every op but a ping adds exactly one
  // request to its document's home shard and none to the others.
  dsp::DspServer s0, s1, s2;
  dsp::FaultInjectingService faulty(&s2);
  dsp::ShardedService sharded({&s0, &s1, &faulty});

  auto expect_home_only = [&](const std::string& doc_id, const char* label,
                              auto op) {
    const size_t home = sharded.ShardFor(doc_id);
    const std::vector<uint64_t> before = sharded.shard_requests();
    op();
    const std::vector<uint64_t> after = sharded.shard_requests();
    for (size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(after[i] - before[i], i == home ? 1u : 0u)
          << label << " on shard " << i;
    }
  };

  const std::string doc_id = "routed";
  Rng rng(1);
  auto key = crypto::SymmetricKey::Generate(&rng);
  Bytes container =
      crypto::SecureContainer::Seal(key, Bytes(700, 0x42), 256, &rng);
  expect_home_only(doc_id, "publish", [&] {
    EXPECT_TRUE(sharded.Publish(doc_id, container, Bytes{1}).ok());
  });
  expect_home_only(doc_id, "open", [&] {
    auto open = sharded.OpenDocument(doc_id);
    ASSERT_TRUE(open.ok()) << open.status().ToString();
    EXPECT_EQ(open.value().sealed_rules, (Bytes{1}));
  });
  expect_home_only(doc_id, "get-chunks", [&] {
    auto chunks = sharded.GetChunks(
        doc_id, {skipindex::ChunkRun{0, 1}, skipindex::ChunkRun{2, 1}});
    ASSERT_TRUE(chunks.ok()) << chunks.status().ToString();
    EXPECT_EQ(chunks.value().size(), 2u);
  });
  expect_home_only(doc_id, "update", [&] {
    EXPECT_TRUE(sharded.UpdateRules(doc_id, Bytes{2}).ok());
  });
  expect_home_only(doc_id, "remove", [&] {
    EXPECT_TRUE(sharded.Remove(doc_id).ok());
  });
  EXPECT_EQ(sharded.stats().documents, 0u);

  // An absent id is NotFound from its home shard alone.
  expect_home_only("nowhere", "absent open", [&] {
    EXPECT_EQ(sharded.OpenDocument("nowhere").status().code(),
              StatusCode::kNotFound);
  });

  // A ping probes the whole fleet and fails when any shard is down.
  const std::vector<uint64_t> before = sharded.shard_requests();
  EXPECT_TRUE(sharded.Ping().ok());
  const std::vector<uint64_t> after = sharded.shard_requests();
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i] - before[i], 1u) << "ping on shard " << i;
  }
  faulty.set_crashed(true);
  EXPECT_FALSE(sharded.Ping().ok());

  // The dispatcher's lanes place documents with the same hash.
  dsp::AsyncDispatcher::Options opt;
  opt.workers = sharded.shard_count();
  dsp::AsyncDispatcher dispatcher(&s0, opt);
  for (int i = 0; i < 64; ++i) {
    const std::string id = "doc-" + std::to_string(i);
    EXPECT_EQ(dispatcher.LaneFor(id), sharded.ShardFor(id)) << id;
  }
}

// --- Caching client --------------------------------------------------------

TEST(TransportTest, CachingClientRevalidatesByRulesVersion) {
  dsp::DspServer dsp;
  dsp::CachingClient cached(&dsp);
  pki::KeyRegistry registry;
  Publisher publisher(&dsp, &registry, 14);  // writes bypass the cache
  auto receipt = publisher.Publish("folder", MakeDoc(200, 8),
                                   "+ doctor //patient\n");
  ASSERT_TRUE(receipt.ok());

  Terminal doctor("doctor", CardProfile::EGate(), &cached, &registry);
  ASSERT_TRUE(doctor.Provision("folder").ok());

  auto first = doctor.Query("folder", QueryOptions{});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cached.misses(), 1u);

  // Unchanged policy: the second open is a tiny not-modified revalidation
  // served from the cache — fewer DSP bytes for the same view.
  auto second = doctor.Query("folder", QueryOptions{});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cached.hits(), 1u);
  EXPECT_EQ(second.value().xml, first.value().xml);
  EXPECT_LT(second.value().dsp_bytes_fetched, first.value().dsp_bytes_fetched);
  EXPECT_EQ(dsp.stats().not_modified, 1u);

  // A policy update bumps the version even though it went straight to the
  // backend: revalidation invalidates and the new view takes effect.
  ASSERT_TRUE(publisher
                  .UpdateRules("folder", receipt.value().key,
                               "+ doctor //patient\n- doctor //patient/ssn\n")
                  .ok());
  auto third = doctor.Query("folder", QueryOptions{});
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(cached.invalidations(), 1u);
  EXPECT_EQ(third.value().xml.find("<ssn>"), std::string::npos);
  EXPECT_NE(first.value().xml.find("<ssn>"), std::string::npos);
}

TEST(TransportTest, CachingClientSurvivesRepublish) {
  // Republishing a document under the same id must bump the rules version
  // so the version-keyed cache cannot serve the old header against the new
  // container's chunks.
  dsp::DspServer dsp;
  dsp::CachingClient cached(&dsp);
  pki::KeyRegistry registry;
  Publisher publisher(&dsp, &registry, 15);
  ASSERT_TRUE(
      publisher.Publish("d", MakeDoc(150, 9), "+ u //patient\n").ok());

  Terminal u("u", CardProfile::EGate(), &cached, &registry);
  ASSERT_TRUE(u.Provision("d").ok());
  ASSERT_TRUE(u.Query("d", QueryOptions{}).ok());  // caches {header, v1}

  // Same id, brand-new content and key (fresh publication).
  ASSERT_TRUE(
      publisher.Publish("d", MakeDoc(300, 10), "+ u //patient\n").ok());
  ASSERT_TRUE(u.Provision("d").ok());  // pick up the new key grant
  EXPECT_GT(dsp.OpenDocument("d").value().rules_version, 1u);
  auto after = u.Query("d", QueryOptions{});
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(cached.invalidations(), 1u);
  EXPECT_FALSE(after.value().xml.empty());
}

TEST(TransportTest, RepublishOfIdenticalContainerBumpsTheVersion) {
  // A publish whose container bytes match the stored ones (a retried or
  // replayed publish) is a publish like any other: it bumps the version,
  // swaps the rules and keeps serving the container.
  dsp::DspServer dsp;
  Rng rng(77);
  auto key = crypto::SymmetricKey::Generate(&rng);
  Bytes container =
      crypto::SecureContainer::Seal(key, Bytes(700, 0x5A), 256, &rng);

  ASSERT_TRUE(dsp.Publish("d", container, Bytes(8, 1)).ok());
  ASSERT_TRUE(dsp.Publish("d", container, Bytes(8, 2)).ok());
  auto open = dsp.OpenDocument("d");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open.value().rules_version, 2u);
  EXPECT_EQ(open.value().sealed_rules, Bytes(8, 2));
  auto got = dsp.GetContainer("d");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), container);

  Bytes other =
      crypto::SecureContainer::Seal(key, Bytes(900, 0x3C), 256, &rng);
  ASSERT_TRUE(dsp.Publish("d", other, Bytes(8, 3)).ok());
  EXPECT_EQ(dsp.OpenDocument("d").value().rules_version, 3u);
}

TEST(TransportTest, CachingClientDropsStaleEntryWhenDocumentVanishes) {
  // Regression: a cached document removed behind the cache's back used to
  // leave its entry in the map forever — the NotFound early-return skipped
  // the erase. The stale entry must be dropped on the failed open.
  dsp::DspServer dsp;
  dsp::CachingClient cached(&dsp);
  pki::KeyRegistry registry;
  Publisher publisher(&dsp, &registry, 16);  // talks straight to the backend
  ASSERT_TRUE(publisher.Publish("ghost", MakeDoc(80, 11), "+ u /hospital\n").ok());

  ASSERT_TRUE(cached.OpenDocument("ghost").ok());  // fill
  ASSERT_TRUE(cached.OpenDocument("ghost").ok());  // hit
  EXPECT_EQ(cached.hits(), 1u);
  EXPECT_EQ(cached.cache_size(), 1u);

  // Removed directly on the backend: the cache cannot have seen it.
  ASSERT_TRUE(dsp.Remove("ghost").ok());
  auto open = cached.OpenDocument("ghost");
  EXPECT_EQ(open.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cached.cache_size(), 0u);  // the stale entry is gone

  // A republished incarnation is served fresh, not from the dead entry.
  ASSERT_TRUE(publisher.Publish("ghost", MakeDoc(90, 12), "+ u /hospital\n").ok());
  auto fresh = cached.OpenDocument("ghost");
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(fresh.value().rules_version, 1u);  // tombstone kept it monotone
  EXPECT_EQ(cached.misses(), 2u);
  EXPECT_EQ(cached.cache_size(), 1u);
}

TEST(TransportTest, ShardedFailedPublishKeepsExistingCopies) {
  // A rejected publish must not destroy the stored copy of the document.
  dsp::DspServer s0, s1;
  dsp::ShardedService sharded({&s0, &s1});
  const std::string doc_id = "survivor";
  dsp::DspServer* home = sharded.ShardFor(doc_id) == 0 ? &s0 : &s1;

  Rng rng(3);
  auto key = crypto::SymmetricKey::Generate(&rng);
  Bytes good = crypto::SecureContainer::Seal(key, Bytes(600, 0x33), 256, &rng);
  ASSERT_TRUE(home->Publish(doc_id, good, Bytes{5}).ok());

  EXPECT_FALSE(sharded.Publish(doc_id, Bytes{1, 2, 3}, Bytes{}).ok());
  auto open = sharded.OpenDocument(doc_id);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_EQ(open.value().sealed_rules, (Bytes{5}));
}

// --- Multi-span kGetChunks ---------------------------------------------------

// Seals a 10-chunk container (payload 2500 bytes, chunk 256) and returns
// the per-chunk reference fetched one span at a time.
std::vector<soe::ChunkData> PublishTenChunks(dsp::Service* dsp,
                                             const std::string& doc_id,
                                             uint64_t seed) {
  Rng rng(seed);
  auto key = crypto::SymmetricKey::Generate(&rng);
  Bytes payload(2500);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>((seed * 37 + i) & 0xFF);
  }
  Bytes container = crypto::SecureContainer::Seal(key, payload, 256, &rng);
  EXPECT_TRUE(dsp->Publish(doc_id, container, Bytes{1}).ok());
  std::vector<soe::ChunkData> reference;
  for (uint32_t i = 0; i < 10; ++i) {
    auto one = dsp->GetChunks(doc_id, {skipindex::ChunkRun{i, 1}});
    EXPECT_TRUE(one.ok()) << i;
    reference.push_back(std::move(one.value()[0]));
  }
  return reference;
}

TEST(TransportTest, MultiSpanGetChunksServesSpansInRequestOrder) {
  dsp::DspServer dsp;
  std::vector<soe::ChunkData> reference = PublishTenChunks(&dsp, "m", 31);

  // Many disjoint spans, deliberately out of order, with an empty span
  // and an overlap thrown in: the response is the flattened concatenation
  // in REQUEST order (a chunk appearing in two spans is served twice) —
  // and the whole thing is exactly one request.
  std::vector<skipindex::ChunkRun> spans = {
      {7, 2}, {0, 3}, {4, 0}, {2, 2}, {9, 1}};
  const std::vector<uint32_t> expect = {7, 8, 0, 1, 2, 2, 3, 9};
  uint64_t requests_before = dsp.stats().requests;
  auto got = dsp.GetChunks("m", spans);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(dsp.stats().requests, requests_before + 1);
  ASSERT_EQ(got.value().size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(got.value()[i].ciphertext, reference[expect[i]].ciphertext) << i;
  }

  // All-empty spans are a legal no-op request.
  auto none = dsp.GetChunks("m", {skipindex::ChunkRun{3, 0}, skipindex::ChunkRun{0, 0}});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none.value().empty());

  // Any span reaching past the end fails the whole request: a planner bug
  // must surface as an error here, not as truncated data.
  EXPECT_FALSE(dsp.GetChunks("m", {skipindex::ChunkRun{0, 1}, skipindex::ChunkRun{9, 2}})
                   .ok());
  EXPECT_FALSE(dsp.GetChunks("m", {skipindex::ChunkRun{10, 1}}).ok());
}

TEST(TransportTest, MultiSpanGetChunksKeepsSpanOrderOnShardedFleet) {
  // The planner's multi-span requests cross the router whole: the home
  // shard serves the batch in request order.
  dsp::DspServer s0, s1;
  dsp::ShardedService sharded({&s0, &s1});
  const std::string doc_id = "routed-spans";
  std::vector<soe::ChunkData> reference =
      PublishTenChunks(&sharded, doc_id, 32);
  dsp::DspServer* home = sharded.ShardFor(doc_id) == 0 ? &s0 : &s1;
  EXPECT_EQ(home->size(), 1u);

  auto got = sharded.GetChunks(
      doc_id, {skipindex::ChunkRun{8, 2}, skipindex::ChunkRun{1, 2}});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got.value().size(), 4u);
  EXPECT_EQ(got.value()[0].ciphertext, reference[8].ciphertext);
  EXPECT_EQ(got.value()[1].ciphertext, reference[9].ciphertext);
  EXPECT_EQ(got.value()[2].ciphertext, reference[1].ciphertext);
  EXPECT_EQ(got.value()[3].ciphertext, reference[2].ciphertext);

  // And the span-order contract holds through the router exactly as it
  // does against a single store.
  auto again = sharded.GetChunks(
      doc_id, {skipindex::ChunkRun{0, 1}, skipindex::ChunkRun{0, 0}, skipindex::ChunkRun{5, 3}});
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again.value().size(), 4u);
  EXPECT_EQ(again.value()[0].ciphertext, reference[0].ciphertext);
  EXPECT_EQ(again.value()[3].ciphertext, reference[7].ciphertext);
}

// --- Miss-window contract --------------------------------------------------

TEST(TransportTest, MissWindowFetchesFixedBatchesOnASequentialScan) {
  fakes::TaggedChunkProvider backend(16);
  soe::PlannedProvider prefetch(&backend, /*chunk_count=*/16, soe::FetchPlan{},
                                /*max_prefetch=*/8);

  // Sequential scan of all 16 chunks with no plan: two fixed windows of 8
  // instead of 16 batches, and every chunk comes back intact.
  for (uint32_t i = 0; i < 16; ++i) {
    auto chunk = fakes::FetchOne(prefetch, i);
    ASSERT_TRUE(chunk.ok()) << i;
    EXPECT_EQ(chunk.value().ciphertext[0], static_cast<uint8_t>(i));
  }
  EXPECT_EQ(backend.batches, 2u);
  EXPECT_EQ(prefetch.round_trips(), 2u);
  EXPECT_EQ(prefetch.window_trips(), 2u);
  EXPECT_EQ(prefetch.planned_trips(), 0u);
  EXPECT_EQ(prefetch.chunks_fetched(), 16u);

  // Out-of-range propagates the backend error.
  EXPECT_FALSE(fakes::FetchOne(prefetch, 99).ok());
}

TEST(TransportTest, MissWindowClampsAtContainerEnd) {
  // 5 chunks under an 8-chunk window: the one window is clamped to the
  // real tail — the backend errors past the end.
  fakes::TaggedChunkProvider backend(5);
  soe::PlannedProvider prefetch(&backend, /*chunk_count=*/5, soe::FetchPlan{},
                                /*max_prefetch=*/8);

  for (uint32_t i = 0; i < 5; ++i) {
    auto chunk = fakes::FetchOne(prefetch, i);
    ASSERT_TRUE(chunk.ok()) << i;
    EXPECT_EQ(chunk.value().ciphertext[0], static_cast<uint8_t>(i));
  }
  EXPECT_EQ(backend.max_end_requested, 5u);  // never past the end
  EXPECT_EQ(backend.batches, 1u);            // [0,5) clamped

  // An explicit out-of-range request still passes through (the backend's
  // error is the contract), rather than being clamped into a wrong answer.
  EXPECT_FALSE(fakes::FetchOne(prefetch, 7).ok());
}

TEST(TransportTest, MissWindowBackwardJumpKeepsPayloadsRight) {
  // After a backward jump the buffer is refilled from the jump target;
  // every chunk served afterwards must still carry its own payload,
  // whether it was fetched or answered from the buffer.
  fakes::TaggedChunkProvider backend(12);
  soe::PlannedProvider prefetch(&backend, 12, soe::FetchPlan{},
                                /*max_prefetch=*/4);

  for (uint32_t i = 0; i < 8; ++i) ASSERT_TRUE(fakes::FetchOne(prefetch, i).ok());

  auto back = fakes::FetchOne(prefetch, 2);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().ciphertext[0], 2u);

  for (uint32_t i = 3; i < 12; ++i) {
    auto chunk = fakes::FetchOne(prefetch, i);
    ASSERT_TRUE(chunk.ok()) << i;
    EXPECT_EQ(chunk.value().ciphertext[0], static_cast<uint8_t>(i)) << i;
  }
  EXPECT_EQ(backend.max_end_requested, 12u);
}

TEST(TransportTest, MissWindowOneIsPerChunk) {
  fakes::TaggedChunkProvider backend(6);
  soe::PlannedProvider prefetch(&backend, 6, soe::FetchPlan{},
                                /*max_prefetch=*/1);
  for (uint32_t i = 0; i < 6; ++i) ASSERT_TRUE(fakes::FetchOne(prefetch, i).ok());
  EXPECT_EQ(backend.batches, 6u);
  EXPECT_EQ(prefetch.round_trips(), 6u);
}

TEST(TransportTest, BufferedChunksAreServedOnce) {
  // A chunk leaves the terminal's buffers when the card takes it, from the
  // planned batch or from a window: asking for it again is a new fetch,
  // and it still carries its own payload.
  fakes::TaggedChunkProvider backend(12);
  soe::FetchPlan plan;
  plan.runs = {{0, 4}};
  soe::PlannedProvider prefetch(&backend, 12, plan, /*max_prefetch=*/2);
  for (uint32_t c : {1u, 1u, 6u, 6u, 2u}) {
    auto chunk = fakes::FetchOne(prefetch, c);
    ASSERT_TRUE(chunk.ok()) << c;
    EXPECT_EQ(chunk.value().ciphertext[0], static_cast<uint8_t>(c)) << c;
  }
  // 1 comes from the plan. 1 again, 6, 6 again and 2 each take a window
  // fetch: a taken chunk is gone, and the window fetched at 6 dropped the
  // planned chunks behind it.
  EXPECT_EQ(prefetch.planned_trips(), 1u);
  EXPECT_EQ(prefetch.window_trips(), 4u);
  EXPECT_EQ(prefetch.round_trips(), 5u);
}

// --- Untrusted chunk replies -------------------------------------------------

// The shapes a hostile DSP can give a kGetChunks reply.
enum class ReplyShape { kDropOne, kExtraOne, kDuplicateNeighbour };

// Serves every request from `backend` but reshapes each OK kGetChunks reply.
class ReshapingService : public dsp::Service {
 public:
  ReshapingService(dsp::Service* backend, ReplyShape shape)
      : backend_(backend), shape_(shape) {}

  Result<dsp::Response> Execute(dsp::Request request) override {
    const dsp::Op op = request.op;
    CSXA_ASSIGN_OR_RETURN(dsp::Response resp,
                          backend_->Execute(std::move(request)));
    std::vector<soe::ChunkData>& chunks = resp.chunks;
    if (op != dsp::Op::kGetChunks || chunks.empty()) return resp;
    const size_t mid = chunks.size() / 2;
    switch (shape_) {
      case ReplyShape::kDropOne:
        chunks.erase(chunks.begin() + static_cast<std::ptrdiff_t>(mid));
        break;
      case ReplyShape::kExtraOne:
        chunks.push_back(chunks.back());
        break;
      case ReplyShape::kDuplicateNeighbour:
        if (chunks.size() < 2) return resp;
        chunks[mid] = chunks[mid - 1];
        break;
    }
    ++reshaped;
    return resp;
  }
  dsp::ServiceStats stats() const override { return backend_->stats(); }

  uint64_t reshaped = 0;

 private:
  dsp::Service* backend_;
  ReplyShape shape_;
};

TEST(TransportTest, MalformedChunkRepliesFailOrDeliverTheOracleView) {
  dsp::DspServer dsp;
  pki::KeyRegistry registry;
  Publisher publisher(&dsp, &registry, 31);
  proxy::PublishOptions popt;
  popt.chunk_size = 128;
  const xml::DomDocument doc = MakeDoc(800, 9);
  const std::string rules_text = "+ u //patient/admin\n";
  ASSERT_TRUE(publisher.Publish("h", doc, rules_text, popt).ok());

  const core::RuleSet rules = core::RuleSet::ParseText(rules_text).value();
  const std::string oracle =
      core::BuildAuthorizedView(doc, rules.ForSubject("u"), nullptr)
          .value()
          .Serialize();
  const Bytes encoded =
      skipindex::EncodeDocument(doc, skipindex::EncodeOptions{}).value();
  const soe::FetchPlan plan =
      soe::ComputeFetchPlan(encoded, popt.chunk_size, rules.ForSubject("u"),
                            nullptr)
          .value();
  ASSERT_FALSE(plan.runs.empty());

  QueryOptions learning;
  QueryOptions planned;
  planned.plan = &plan;
  QueryOptions per_chunk;
  per_chunk.max_prefetch = 1;

  for (ReplyShape shape : {ReplyShape::kDropOne, ReplyShape::kExtraOne,
                           ReplyShape::kDuplicateNeighbour}) {
    ReshapingService hostile(&dsp, shape);
    for (const QueryOptions* options : {&learning, &planned, &per_chunk}) {
      Terminal t("u", CardProfile::EGate(), &hostile, &registry);
      ASSERT_TRUE(t.Provision("h").ok());
      auto result = t.Query("h", *options);
      if (result.ok()) {
        EXPECT_EQ(result.value().xml, oracle)
            << "shape " << static_cast<int>(shape) << ", max_prefetch "
            << options->max_prefetch << ", planned "
            << (options->plan != nullptr);
      }
    }
    EXPECT_GT(hostile.reshaped, 0u) << static_cast<int>(shape);
  }
}

// --- Backend parity ----------------------------------------------------------
//
// Every storage backend serves the dsp::DocTable protocol core: the same
// suite runs over the in-memory DspServer and over DurableServer on a
// MemEnv volume, and a differential replays one op script on both.

Bytes SealedContainer(uint64_t seed, size_t payload_size, size_t chunk) {
  Rng rng(seed);
  auto key = crypto::SymmetricKey::Generate(&rng);
  Bytes payload(payload_size, 0x5C);
  return crypto::SecureContainer::Seal(key, payload, chunk, &rng);
}

template <typename Backend>
std::unique_ptr<Backend> OpenBackend(dsp::MemEnv* env);

template <>
std::unique_ptr<dsp::DspServer> OpenBackend(dsp::MemEnv*) {
  return std::make_unique<dsp::DspServer>();
}

template <>
std::unique_ptr<dsp::DurableServer> OpenBackend(dsp::MemEnv* env) {
  dsp::DurableOptions options;
  options.directory = "store";
  Rng rng(42);
  options.key = crypto::SymmetricKey::Generate(&rng);
  options.env = env;
  auto opened = dsp::DurableServer::Open(std::move(options));
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).value();
}

// A publish or rules update carrying a forced version, as a replication
// layer sends it.
Result<dsp::Response> ExecuteForced(dsp::Service* service, dsp::Op op,
                                    const std::string& doc_id, Bytes container,
                                    Bytes sealed_rules, uint64_t forced) {
  dsp::Request req;
  req.op = op;
  req.doc_id = doc_id;
  req.container = std::move(container);
  req.sealed_rules = std::move(sealed_rules);
  req.force_rules_version = forced;
  return service->Execute(std::move(req));
}

template <typename Backend>
class BackendTest : public ::testing::Test {
 protected:
  dsp::MemEnv env_;  // DurableServer's volume
  std::unique_ptr<Backend> server_ = OpenBackend<Backend>(&env_);
};

using Backends = ::testing::Types<dsp::DspServer, dsp::DurableServer>;
TYPED_TEST_SUITE(BackendTest, Backends);

TYPED_TEST(BackendTest, OpenDocumentBatchesHeaderRulesVersion) {
  auto& server = *this->server_;
  Bytes container = SealedContainer(1, 2000, 512);
  ASSERT_TRUE(server.Publish("d", container, Bytes{1, 2, 3}).ok());
  EXPECT_EQ(server.size(), 1u);

  // One round trip carries header + sealed rules + version.
  uint64_t requests_before = server.stats().requests;
  auto open = server.OpenDocument("d");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(server.stats().requests, requests_before + 1);
  EXPECT_EQ(open.value().header.size(), crypto::ContainerHeader::kWireSize);
  EXPECT_EQ(open.value().sealed_rules, (Bytes{1, 2, 3}));
  EXPECT_EQ(open.value().rules_version, 1u);
  EXPECT_FALSE(open.value().not_modified);

  auto full = server.GetContainer("d");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().size(), container.size());
  EXPECT_GT(server.stats().bytes_served, 0u);
}

TYPED_TEST(BackendTest, GetChunksServesSpansInOrder) {
  auto& server = *this->server_;
  ASSERT_TRUE(
      server.Publish("d", SealedContainer(1, 2000, 512), Bytes{}).ok());

  // One span of two chunks plus a singleton span: one round trip.
  uint64_t requests_before = server.stats().requests;
  auto chunks = server.GetChunks("d", {{0, 2}, {3, 1}});
  ASSERT_TRUE(chunks.ok());
  EXPECT_EQ(server.stats().requests, requests_before + 1);
  ASSERT_EQ(chunks.value().size(), 3u);
  EXPECT_EQ(chunks.value()[0].ciphertext.size(), 512u);
  EXPECT_EQ(server.stats().chunks_served, 3u);

  // Per-chunk equals the corresponding batch element.
  auto single = server.GetChunks("d", {{3, 1}});
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single.value()[0].ciphertext, chunks.value()[2].ciphertext);

  // Out-of-range spans fail as a whole.
  EXPECT_FALSE(server.GetChunks("d", {{99, 1}}).ok());
  EXPECT_FALSE(server.GetChunks("d", {{0, 99}}).ok());
}

// A kGetChunks reply views the stored container bytes and holds a
// reference to them, so it outlives the document: after a republish and a
// remove, issued on a dispatcher worker thread, the chunks of a reply
// served inline and of one served on the worker still verify and decrypt
// to the first container's payload. (ASan and TSan run this label.)
TYPED_TEST(BackendTest, ChunkRepliesOutliveRepublishAndRemove) {
  auto& server = *this->server_;
  Rng rng(77);
  const auto key = crypto::SymmetricKey::Generate(&rng);
  Bytes payload(2000);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  constexpr uint32_t kChunk = 256;
  Bytes sealed = crypto::SecureContainer::Seal(key, payload, kChunk, &rng);
  const crypto::ContainerHeader header =
      crypto::SecureContainer::Parse(sealed).value().header();
  ASSERT_TRUE(server.Publish("d", sealed, Bytes{1}).ok());

  auto inline_reply = server.GetChunks("d", {{0, 2}, {5, 1}});
  ASSERT_TRUE(inline_reply.ok()) << inline_reply.status().ToString();
  dsp::AsyncDispatcher dispatcher(&server);
  dsp::Request request;
  request.op = dsp::Op::kGetChunks;
  request.doc_id = "d";
  request.spans = {{2, 3}};
  auto worker_reply = dispatcher.Submit(std::move(request)).get();
  ASSERT_TRUE(worker_reply.ok()) << worker_reply.status().ToString();

  // Writes run on the dispatcher's worker: the table drops its reference
  // to the first container there.
  ASSERT_TRUE(dispatcher
                  .Publish("d", SealedContainer(9, payload.size(), kChunk),
                           Bytes{2})
                  .ok());
  ASSERT_TRUE(dispatcher.Remove("d").ok());
  EXPECT_FALSE(server.GetChunks("d", {{0, 1}}).ok());
  // Same-sized allocations are likely to land where freed container bytes
  // were, so a reply that did not hold its bytes would read these.
  std::vector<Bytes> churn;
  for (int i = 0; i < 8; ++i) churn.emplace_back(sealed.size(), 0xA5);

  auto expect_payload = [&](const std::vector<soe::ChunkData>& chunks,
                            const std::vector<uint32_t>& indices) {
    ASSERT_EQ(chunks.size(), indices.size());
    for (size_t i = 0; i < chunks.size(); ++i) {
      const uint32_t index = indices[i];
      auto plain = crypto::SecureContainer::VerifyAndDecryptChunk(
          key, header, index, chunks[i].ciphertext, chunks[i].auth);
      ASSERT_TRUE(plain.ok()) << index << ": " << plain.status().ToString();
      const size_t at = size_t{index} * kChunk;
      EXPECT_TRUE(std::equal(plain.value().begin(), plain.value().end(),
                             payload.begin() + static_cast<long>(at)))
          << index;
    }
  };
  expect_payload(inline_reply.value(), {0, 1, 5});
  expect_payload(worker_reply.value().chunks, {2, 3, 4});
}

TYPED_TEST(BackendTest, RevalidationByKnownVersion) {
  auto& server = *this->server_;
  ASSERT_TRUE(server.Publish("d", SealedContainer(4, 600, 256), Bytes{7}).ok());

  auto first = server.OpenDocument("d");
  ASSERT_TRUE(first.ok());
  uint64_t full_wire = first.value().wire_bytes;

  // Same version: not-modified, bodies elided, tiny reply.
  auto again = server.OpenDocument("d", first.value().rules_version);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().not_modified);
  EXPECT_TRUE(again.value().header.empty());
  EXPECT_TRUE(again.value().sealed_rules.empty());
  EXPECT_LT(again.value().wire_bytes, full_wire);
  EXPECT_EQ(server.stats().not_modified, 1u);

  // A policy update bumps the version: revalidation returns full bodies.
  ASSERT_TRUE(server.UpdateRules("d", Bytes{9}).ok());
  auto after = server.OpenDocument("d", first.value().rules_version);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().not_modified);
  EXPECT_EQ(after.value().rules_version, 2u);
  EXPECT_EQ(after.value().sealed_rules, (Bytes{9}));
}

TYPED_TEST(BackendTest, UnknownDocumentIsNotFound) {
  auto& server = *this->server_;
  EXPECT_EQ(server.OpenDocument("x").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(server.GetChunks("x", {{0, 1}}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(server.UpdateRules("x", {}).code(), StatusCode::kNotFound);
  EXPECT_EQ(server.Remove("x").code(), StatusCode::kNotFound);
}

TYPED_TEST(BackendTest, RuleUpdateBumpsVersion) {
  auto& server = *this->server_;
  ASSERT_TRUE(server.Publish("d", SealedContainer(2, 600, 256), Bytes{1}).ok());
  EXPECT_EQ(server.OpenDocument("d").value().rules_version, 1u);
  ASSERT_TRUE(server.UpdateRules("d", Bytes{9}).ok());
  auto open = server.OpenDocument("d");
  EXPECT_EQ(open.value().rules_version, 2u);
  EXPECT_EQ(open.value().sealed_rules, (Bytes{9}));
}

TYPED_TEST(BackendTest, RejectsGarbageContainer) {
  EXPECT_FALSE(this->server_->Publish("d", Bytes{1, 2, 3}, Bytes{}).ok());
}

TYPED_TEST(BackendTest, RemoveWorks) {
  auto& server = *this->server_;
  ASSERT_TRUE(server.Publish("d", SealedContainer(3, 600, 256), Bytes{}).ok());
  ASSERT_TRUE(server.Remove("d").ok());
  EXPECT_EQ(server.size(), 0u);
}

TYPED_TEST(BackendTest, VersionStaysMonotoneAcrossRepublishAndRemove) {
  // Version-keyed caches rely on the version never revisiting a value a
  // client may have cached — across republish AND remove-then-republish.
  auto& server = *this->server_;
  ASSERT_TRUE(server.Publish("d", SealedContainer(5, 600, 256), Bytes{1}).ok());
  ASSERT_TRUE(server.UpdateRules("d", Bytes{2}).ok());  // -> v2
  ASSERT_TRUE(server.Publish("d", SealedContainer(6, 600, 256), Bytes{3}).ok());
  EXPECT_EQ(server.OpenDocument("d").value().rules_version, 3u);
  ASSERT_TRUE(server.Remove("d").ok());
  ASSERT_TRUE(server.Publish("d", SealedContainer(7, 600, 256), Bytes{4}).ok());
  EXPECT_EQ(server.OpenDocument("d").value().rules_version, 4u);
  // A revalidation with any historical version gets the full new bodies.
  auto open = server.OpenDocument("d", /*known_rules_version=*/3);
  ASSERT_TRUE(open.ok());
  EXPECT_FALSE(open.value().not_modified);
  EXPECT_EQ(open.value().sealed_rules, (Bytes{4}));
}

TYPED_TEST(BackendTest, ForcedVersionOnPublishIsStoredAsIs) {
  auto& server = *this->server_;
  ASSERT_TRUE(server.Publish("d", SealedContainer(8, 600, 256), Bytes{1}).ok());
  auto forced = ExecuteForced(&server, dsp::Op::kPublish, "d",
                              SealedContainer(9, 600, 256), Bytes{2}, 7);
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  EXPECT_EQ(forced.value().rules_version, 7u);
  EXPECT_EQ(server.OpenDocument("d").value().rules_version, 7u);
  // Unforced writes continue from the forced version.
  ASSERT_TRUE(server.UpdateRules("d", Bytes{3}).ok());
  EXPECT_EQ(server.OpenDocument("d").value().rules_version, 8u);
}

TYPED_TEST(BackendTest, ForcedVersionOnUpdateIsStoredAsIs) {
  auto& server = *this->server_;
  ASSERT_TRUE(
      server.Publish("d", SealedContainer(10, 600, 256), Bytes{1}).ok());
  auto forced =
      ExecuteForced(&server, dsp::Op::kUpdateRules, "d", Bytes{}, Bytes{2}, 5);
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  EXPECT_EQ(forced.value().rules_version, 5u);
  auto open = server.OpenDocument("d");
  EXPECT_EQ(open.value().rules_version, 5u);
  EXPECT_EQ(open.value().sealed_rules, (Bytes{2}));
  ASSERT_TRUE(
      server.Publish("d", SealedContainer(11, 600, 256), Bytes{3}).ok());
  EXPECT_EQ(server.OpenDocument("d").value().rules_version, 6u);
}

TYPED_TEST(BackendTest, ForcedVersionOnFreshIdIsStoredAsIs) {
  auto& server = *this->server_;
  auto fresh = ExecuteForced(&server, dsp::Op::kPublish, "new",
                             SealedContainer(12, 600, 256), Bytes{1}, 4);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh.value().rules_version, 4u);
  EXPECT_EQ(server.OpenDocument("new").value().rules_version, 4u);
  // A forced version overrides the tombstone floor too: the replication
  // layer owns the canonical history.
  ASSERT_TRUE(server.Remove("new").ok());
  auto again = ExecuteForced(&server, dsp::Op::kPublish, "new",
                             SealedContainer(13, 600, 256), Bytes{2}, 2);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(server.OpenDocument("new").value().rules_version, 2u);
}

void ExpectSameResult(const Result<dsp::Response>& mem,
                      const Result<dsp::Response>& durable, size_t step) {
  SCOPED_TRACE("script step " + std::to_string(step));
  ASSERT_EQ(mem.ok(), durable.ok());
  if (!mem.ok()) {
    EXPECT_EQ(mem.status().ToString(), durable.status().ToString());
    return;
  }
  const dsp::Response& a = mem.value();
  const dsp::Response& b = durable.value();
  EXPECT_EQ(a.not_modified, b.not_modified);
  EXPECT_EQ(a.header, b.header);
  EXPECT_EQ(a.sealed_rules, b.sealed_rules);
  EXPECT_EQ(a.rules_version, b.rules_version);
  EXPECT_EQ(a.container, b.container);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  ASSERT_EQ(a.chunks.size(), b.chunks.size());
  for (size_t i = 0; i < a.chunks.size(); ++i) {
    EXPECT_EQ(a.chunks[i].ciphertext, b.chunks[i].ciphertext);
    EXPECT_EQ(a.chunks[i].auth.mac, b.chunks[i].auth.mac);
    EXPECT_EQ(a.chunks[i].auth.proof.size(), b.chunks[i].auth.proof.size());
  }
}

TEST(BackendParityTest, SameScriptSameResponsesAndStats) {
  dsp::MemEnv env;
  auto mem = OpenBackend<dsp::DspServer>(&env);
  auto durable = OpenBackend<dsp::DurableServer>(&env);
  const Bytes a1 = SealedContainer(20, 2000, 256);
  const Bytes a2 = SealedContainer(21, 900, 256);
  const Bytes b1 = SealedContainer(22, 700, 128);

  auto req = [](dsp::Op op, std::string doc_id) {
    dsp::Request r;
    r.op = op;
    r.doc_id = std::move(doc_id);
    return r;
  };
  auto publish = [&](std::string doc_id, const Bytes& container,
                     Bytes rules) {
    dsp::Request r = req(dsp::Op::kPublish, std::move(doc_id));
    r.container = container;
    r.sealed_rules = std::move(rules);
    return r;
  };
  std::vector<dsp::Request> script;
  script.push_back(publish("a", a1, Bytes{1}));
  script.push_back(publish("b", b1, Bytes{2, 2}));
  script.push_back(req(dsp::Op::kOpenDocument, "a"));
  dsp::Request revalidate = req(dsp::Op::kOpenDocument, "a");
  revalidate.known_rules_version = 1;
  script.push_back(revalidate);
  dsp::Request spans = req(dsp::Op::kGetChunks, "a");
  spans.spans = {{0, 2}, {5, 1}, {1, 1}};
  script.push_back(spans);
  script.push_back(req(dsp::Op::kGetContainer, "b"));
  dsp::Request update = req(dsp::Op::kUpdateRules, "a");
  update.sealed_rules = Bytes{3, 3, 3};
  script.push_back(update);
  script.push_back(revalidate);  // stale version: full bodies
  dsp::Request forced = update;
  forced.force_rules_version = 9;
  script.push_back(forced);
  dsp::Request same_bytes = publish("a", a1, Bytes{4});
  same_bytes.force_rules_version = 12;  // identical bytes, forced version
  script.push_back(same_bytes);
  script.push_back(publish("a", a2, Bytes{5}));  // new container
  script.push_back(req(dsp::Op::kRemove, "b"));
  script.push_back(publish("b", b1, Bytes{6}));  // above the tombstone
  script.push_back(req(dsp::Op::kPing, ""));
  // Failures must match too.
  script.push_back(req(dsp::Op::kOpenDocument, "missing"));
  script.push_back(req(dsp::Op::kRemove, "missing"));
  script.push_back(publish("c", Bytes{1, 2, 3}, Bytes{}));
  dsp::Request out_of_range = req(dsp::Op::kGetChunks, "b");
  out_of_range.spans = {{0, 99}};
  script.push_back(out_of_range);

  for (size_t i = 0; i < script.size(); ++i) {
    ExpectSameResult(mem->Execute(script[i]), durable->Execute(script[i]), i);
  }
  const dsp::ServiceStats m = mem->stats();
  const dsp::ServiceStats d = durable->stats();
  EXPECT_EQ(m.requests, script.size());
  EXPECT_EQ(m.requests, d.requests);
  EXPECT_EQ(m.chunks_served, d.chunks_served);
  EXPECT_EQ(m.bytes_served, d.bytes_served);
  EXPECT_EQ(m.not_modified, d.not_modified);
  EXPECT_EQ(m.documents, d.documents);
}

}  // namespace
}  // namespace csxa
