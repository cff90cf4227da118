// Concurrency suite for the multi-tenant serving stack (`ctest -L
// concurrency`; scripts/ci.sh also runs it under ThreadSanitizer).
//
// What is pinned here:
//  - racing publish / policy-update / open traffic through a CachingClient
//    over a ShardedService never serves a torn {sealed_rules,
//    rules_version} pair, and every reader observes monotonically
//    non-decreasing rules versions;
//  - AsyncDispatcher executes one document's requests in submission order
//    (per-document FIFO) and drains every queued request on destruction,
//    with at most one request per lane inside the backend, whether a
//    worker or a caller-runs Execute() runs it;
//  - Terminal's per-query DSP counts are the query's own under 16
//    concurrent sessions on one shared replicated stack;
//  - the full load harness (terminals, publishers, cache, dispatcher,
//    shards) completes a mixed workload with zero failed operations.
//
// Workload sizes are deliberately small: the suite must stay fast on a
// single-core CI machine and under TSan's ~10x slowdown.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "crypto/container.h"
#include "dsp/async.h"
#include "dsp/caching.h"
#include "dsp/replicated.h"
#include "dsp/retrying.h"
#include "dsp/service.h"
#include "dsp/sharded.h"
#include "dsp/store.h"
#include "pki/registry.h"
#include "proxy/publisher.h"
#include "proxy/terminal.h"
#include "workload/load.h"
#include "xml/generator.h"

namespace csxa {
namespace {

// A version-keyed sealed-rules blob: any response whose sealed_rules does
// not equal RulesBlobFor(its rules_version) is a torn pair.
Bytes RulesBlobFor(uint64_t version) {
  return Bytes(16, static_cast<uint8_t>(version & 0xFF));
}

Bytes MakeContainer(uint64_t seed, size_t payload_bytes = 600) {
  Rng rng(seed);
  auto key = crypto::SymmetricKey::Generate(&rng);
  return crypto::SecureContainer::Seal(
      key, Bytes(payload_bytes, static_cast<uint8_t>(seed)), 256, &rng);
}

// --- Readers vs. policy updates --------------------------------------------

TEST(ConcurrencyTest, ReadersSeeMonotoneUntornVersionsUnderUpdates) {
  dsp::DspServer s0, s1;
  dsp::ShardedService sharded({&s0, &s1});
  dsp::CachingClient cached(&sharded);

  const std::string doc_id = "hot";
  ASSERT_TRUE(sharded.Publish(doc_id, MakeContainer(1), RulesBlobFor(1)).ok());
  Bytes expected_header = sharded.OpenDocument(doc_id).value().header;
  ASSERT_FALSE(expected_header.empty());

  constexpr uint64_t kUpdates = 40;
  constexpr size_t kReaders = 4;
  std::atomic<bool> writer_done{false};

  std::thread writer([&] {
    for (uint64_t v = 2; v <= kUpdates; ++v) {
      dsp::Request req;
      req.op = dsp::Op::kUpdateRules;
      req.doc_id = doc_id;
      req.sealed_rules = RulesBlobFor(v);
      auto resp = cached.Execute(std::move(req));
      ASSERT_TRUE(resp.ok());
      // Single writer: the server's version counter advances by exactly 1.
      ASSERT_EQ(resp.value().rules_version, v);
    }
    writer_done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  std::vector<uint64_t> final_versions(kReaders, 0);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t last = 0;
      do {
        auto open = cached.OpenDocument(doc_id);
        ASSERT_TRUE(open.ok()) << open.status().ToString();
        const dsp::Response& resp = open.value();
        // Monotone: the stack never serves a version older than one this
        // reader already saw (cache fills are version-guarded).
        ASSERT_GE(resp.rules_version, last);
        last = resp.rules_version;
        // Untorn: sealed rules always belong to the reported version, and
        // the header never changes under pure policy updates.
        ASSERT_EQ(resp.sealed_rules, RulesBlobFor(resp.rules_version));
        ASSERT_EQ(resp.header, expected_header);
      } while (!writer_done.load(std::memory_order_acquire));
      final_versions[r] = last;
    });
  }
  writer.join();
  for (auto& t : readers) t.join();

  // Everyone converges on the final version once the writer stops.
  auto final_open = cached.OpenDocument(doc_id);
  ASSERT_TRUE(final_open.ok());
  EXPECT_EQ(final_open.value().rules_version, kUpdates);
}

// --- Racing publish / update / open (mixed writers) ------------------------

TEST(ConcurrencyTest, MixedPublishUpdateOpenTrafficStaysConsistent) {
  dsp::DspServer s0, s1;
  dsp::ShardedService sharded({&s0, &s1});
  dsp::CachingClient cached(&sharded);

  const std::string doc_id = "contested";
  ASSERT_TRUE(cached.Publish(doc_id, MakeContainer(2), RulesBlobFor(1)).ok());

  // Two writers race: a republisher (new container + rules each time) and
  // a policy updater. Server-side versions are strictly monotone and each
  // write carries a distinct blob, so each version maps to exactly one
  // blob — any disagreement between observations is a torn read.
  constexpr int kWrites = 15;
  std::atomic<bool> done{false};

  std::thread republisher([&] {
    for (int k = 0; k < kWrites; ++k) {
      dsp::Request req;
      req.op = dsp::Op::kPublish;
      req.doc_id = doc_id;
      req.container = MakeContainer(10 + k);
      req.sealed_rules = Bytes(16, static_cast<uint8_t>(200 + k));
      auto resp = cached.Execute(std::move(req));
      ASSERT_TRUE(resp.ok());
    }
  });
  std::thread updater([&] {
    for (int k = 0; k < kWrites; ++k) {
      dsp::Request req;
      req.op = dsp::Op::kUpdateRules;
      req.doc_id = doc_id;
      req.sealed_rules = Bytes(16, static_cast<uint8_t>(100 + k));
      auto resp = cached.Execute(std::move(req));
      ASSERT_TRUE(resp.ok());
    }
  });

  constexpr size_t kReaders = 3;
  std::vector<std::map<uint64_t, Bytes>> observed(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t last = 0;
      do {
        auto open = cached.OpenDocument(doc_id);
        ASSERT_TRUE(open.ok()) << open.status().ToString();
        const dsp::Response& resp = open.value();
        ASSERT_GE(resp.rules_version, last);
        last = resp.rules_version;
        ASSERT_EQ(resp.header.size(), crypto::ContainerHeader::kWireSize);
        auto [it, inserted] =
            observed[r].emplace(resp.rules_version, resp.sealed_rules);
        if (!inserted) {
          // Re-observing a version must reproduce the identical blob.
          ASSERT_EQ(it->second, resp.sealed_rules) << "torn pair at version "
                                                   << resp.rules_version;
        }
      } while (!done.load(std::memory_order_acquire));
    });
  }

  republisher.join();
  updater.join();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Cross-reader agreement: a version observed by two readers carries the
  // same blob in both.
  std::map<uint64_t, Bytes> merged;
  for (const auto& m : observed) {
    for (const auto& [version, blob] : m) {
      auto [it, inserted] = merged.emplace(version, blob);
      if (!inserted) {
        EXPECT_EQ(it->second, blob) << "version " << version;
      }
    }
  }
  EXPECT_FALSE(merged.empty());
}

// --- AsyncDispatcher ordering and drain ------------------------------------

// Records the order requests reach the backend, per document.
class RecordingService : public dsp::Service {
 public:
  Result<dsp::Response> Execute(dsp::Request request) override {
    {
      std::lock_guard lock(mu_);
      order_[request.doc_id].push_back(request.known_rules_version);
    }
    dsp::Response resp;
    resp.rules_version = request.known_rules_version;
    return resp;
  }
  dsp::ServiceStats stats() const override { return {}; }

  std::map<std::string, std::vector<uint64_t>> TakeOrder() {
    std::lock_guard lock(mu_);
    return order_;
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::vector<uint64_t>> order_;
};

TEST(ConcurrencyTest, AsyncDispatcherKeepsPerDocumentFifoAndDrainsOnExit) {
  RecordingService backend;
  const std::vector<std::string> docs = {"alpha", "bravo", "charlie", "delta"};
  constexpr uint64_t kPerDoc = 25;

  std::vector<std::future<Result<dsp::Response>>> futures;
  {
    dsp::AsyncDispatcher::Options opt;
    opt.workers = 3;
    dsp::AsyncDispatcher dispatcher(&backend, opt);
    // Interleave submissions across documents without ever waiting: the
    // dispatcher's destructor must drain all of them.
    for (uint64_t seq = 1; seq <= kPerDoc; ++seq) {
      for (const std::string& doc : docs) {
        dsp::Request req;
        req.doc_id = doc;
        req.known_rules_version = seq;  // per-doc sequence number
        futures.push_back(dispatcher.Submit(std::move(req)));
      }
    }
    EXPECT_EQ(dispatcher.worker_count(), 3u);
  }  // destruction == drain barrier

  // Every future was fulfilled (none abandoned), with its own sequence.
  ASSERT_EQ(futures.size(), docs.size() * kPerDoc);
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "future " << i << " abandoned";
    auto result = futures[i].get();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().rules_version, i / docs.size() + 1);
  }

  // Per-document FIFO: each document's requests reached the backend in
  // submission order, whatever the worker interleaving was.
  auto order = backend.TakeOrder();
  ASSERT_EQ(order.size(), docs.size());
  for (const std::string& doc : docs) {
    const std::vector<uint64_t>& seq = order[doc];
    ASSERT_EQ(seq.size(), kPerDoc) << doc;
    for (uint64_t i = 0; i < kPerDoc; ++i) {
      EXPECT_EQ(seq[i], i + 1) << doc << " position " << i;
    }
  }
}

TEST(ConcurrencyTest, AsyncDispatcherConcurrentSubmittersAllComplete) {
  dsp::DspServer store;
  ASSERT_TRUE(store.Publish("doc", MakeContainer(3), RulesBlobFor(1)).ok());

  dsp::AsyncDispatcher::Options opt;
  opt.workers = 4;
  dsp::AsyncDispatcher dispatcher(&store, opt);

  constexpr size_t kThreads = 4;
  constexpr size_t kOpsEach = 20;
  std::vector<std::thread> submitters;
  std::atomic<uint64_t> ok_count{0};
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (size_t i = 0; i < kOpsEach; ++i) {
        auto open = dispatcher.OpenDocument("doc");
        if (open.ok() && open.value().rules_version >= 1) {
          ok_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(ok_count.load(), kThreads * kOpsEach);
  EXPECT_EQ(dispatcher.executed(), kThreads * kOpsEach);
  EXPECT_GT(dispatcher.modeled_busy_seconds(), 0.0);
  EXPECT_LE(dispatcher.modeled_makespan_seconds(),
            dispatcher.modeled_busy_seconds());
}

// --- AsyncDispatcher caller-runs Execute ------------------------------------

// Backend that records the executing thread and answers with a
// request-chosen payload size, so the modeled lane clock sees varied
// wire_bytes.
class ThreadRecordingService : public dsp::Service {
 public:
  Result<dsp::Response> Execute(dsp::Request request) override {
    {
      std::lock_guard lock(mu_);
      threads_.push_back(std::this_thread::get_id());
    }
    dsp::Response resp;
    resp.wire_bytes = request.known_rules_version;
    return resp;
  }
  dsp::ServiceStats stats() const override { return {}; }

  std::vector<std::thread::id> threads() {
    std::lock_guard lock(mu_);
    return threads_;
  }

 private:
  std::mutex mu_;
  std::vector<std::thread::id> threads_;
};

TEST(ConcurrencyTest, AsyncDispatcherExecuteOnIdleLaneRunsOnCallerThread) {
  const std::vector<std::string> docs = {"alpha", "bravo", "charlie"};
  auto request = [&](size_t i) {
    dsp::Request req;
    req.doc_id = docs[i % docs.size()];
    req.known_rules_version = 1000 * (i + 1);  // becomes wire_bytes
    return req;
  };
  constexpr size_t kRequests = 12;
  dsp::AsyncDispatcher::Options opt;
  opt.workers = 2;

  ThreadRecordingService inline_backend;
  dsp::AsyncDispatcher inline_dispatcher(&inline_backend, opt);
  for (size_t i = 0; i < kRequests; ++i) {
    auto result = inline_dispatcher.Execute(request(i));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().wire_bytes, 1000 * (i + 1));
  }
  ASSERT_EQ(inline_backend.threads().size(), kRequests);
  for (std::thread::id id : inline_backend.threads()) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }

  ThreadRecordingService worker_backend;
  dsp::AsyncDispatcher worker_dispatcher(&worker_backend, opt);
  for (size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(worker_dispatcher.Submit(request(i)).get().ok());
  }
  for (std::thread::id id : worker_backend.threads()) {
    EXPECT_NE(id, std::this_thread::get_id());
  }

  // Both paths charge the modeled lane clock alike.
  EXPECT_EQ(inline_dispatcher.executed(), kRequests);
  EXPECT_EQ(worker_dispatcher.executed(), kRequests);
  EXPECT_EQ(inline_dispatcher.lane_busy_seconds(),
            worker_dispatcher.lane_busy_seconds());
}

TEST(ConcurrencyTest, AsyncDispatcherLaneChargeIsAdmissionPlusWireBytes) {
  // Each executed request charges its lane 200 us of admission plus its
  // response's wire_bytes at 100 MB/s; an error pays admission only.
  dsp::AsyncDispatcher::Options opt;
  opt.workers = 1;
  ThreadRecordingService backend;
  dsp::AsyncDispatcher dispatcher(&backend, opt);
  dsp::Request req;
  req.doc_id = "doc";
  req.known_rules_version = 1000000;  // becomes wire_bytes: 10 ms
  ASSERT_TRUE(dispatcher.Execute(req).ok());
  EXPECT_DOUBLE_EQ(dispatcher.modeled_busy_seconds(), 0.0102);
  req.known_rules_version = 0;  // an empty reply still pays admission
  ASSERT_TRUE(dispatcher.Submit(req).get().ok());
  EXPECT_DOUBLE_EQ(dispatcher.modeled_busy_seconds(), 0.0104);

  dsp::DspServer store;
  dsp::AsyncDispatcher failing(&store, opt);
  EXPECT_FALSE(failing.OpenDocument("missing").ok());
  EXPECT_DOUBLE_EQ(failing.modeled_busy_seconds(), 200e-6);
}

TEST(ConcurrencyTest, AsyncDispatcherExecuteHandsWritesToTheWorker) {
  ThreadRecordingService backend;
  dsp::AsyncDispatcher::Options opt;
  opt.workers = 1;
  dsp::AsyncDispatcher dispatcher(&backend, opt);
  // The lane is idle before every call, yet only the read runs inline.
  const std::vector<dsp::Op> ops = {dsp::Op::kPublish, dsp::Op::kUpdateRules,
                                    dsp::Op::kRemove, dsp::Op::kOpenDocument};
  for (dsp::Op op : ops) {
    dsp::Request req;
    req.op = op;
    req.doc_id = "doc";
    ASSERT_TRUE(dispatcher.Execute(req).ok());
  }
  const std::vector<std::thread::id> threads = backend.threads();
  ASSERT_EQ(threads.size(), ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(threads[i] == std::this_thread::get_id(), !dsp::IsWrite(ops[i]));
  }
  EXPECT_EQ(dispatcher.executed(), ops.size());
}

// Backend asserting the dispatcher's two execution guarantees: at most one
// request inside it per lane, and each submitter's requests on a document
// arriving in submission order. A request's known_rules_version carries
// (submitter << 32 | sequence number).
class LaneCheckingService : public dsp::Service {
 public:
  explicit LaneCheckingService(std::map<std::string, size_t> lane_of)
      : lane_of_(std::move(lane_of)) {}

  Result<dsp::Response> Execute(dsp::Request request) override {
    std::atomic<int>& in_flight = in_flight_[lane_of_.at(request.doc_id)];
    if (in_flight.fetch_add(1) != 0) overlaps_.fetch_add(1);
    {
      std::lock_guard lock(mu_);
      uint64_t& last = last_seq_[{request.doc_id,
                                  request.known_rules_version >> 32}];
      const uint64_t seq = request.known_rules_version & 0xFFFFFFFFu;
      if (seq <= last) reorders_.fetch_add(1);
      last = seq;
    }
    // Widen the window in which an overlap would show.
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    in_flight.fetch_sub(1);
    return dsp::Response{};
  }
  dsp::ServiceStats stats() const override { return {}; }

  uint64_t overlaps() const { return overlaps_.load(); }
  uint64_t reorders() const { return reorders_.load(); }

 private:
  const std::map<std::string, size_t> lane_of_;
  std::atomic<int> in_flight_[2] = {0, 0};
  std::atomic<uint64_t> overlaps_{0};
  std::atomic<uint64_t> reorders_{0};
  std::mutex mu_;
  std::map<std::pair<std::string, uint64_t>, uint64_t> last_seq_;
};

TEST(ConcurrencyTest, AsyncDispatcherMixedExecuteAndSubmitKeepLaneGuarantees) {
  dsp::AsyncDispatcher::Options opt;
  opt.workers = 2;
  // Two documents per lane, found through the dispatcher's own routing.
  std::vector<std::string> docs;
  std::map<std::string, size_t> lane_of;
  {
    dsp::DspServer unused;
    dsp::AsyncDispatcher probe(&unused, opt);
    size_t per_lane[2] = {0, 0};
    for (int i = 0; docs.size() < 4; ++i) {
      const std::string doc = "doc" + std::to_string(i);
      const size_t lane = probe.LaneFor(doc);
      if (per_lane[lane] == 2) continue;
      ++per_lane[lane];
      docs.push_back(doc);
      lane_of[doc] = lane;
    }
  }
  LaneCheckingService backend(lane_of);
  dsp::AsyncDispatcher dispatcher(&backend, opt);

  constexpr uint64_t kThreads = 8;
  constexpr uint64_t kRounds = 12;
  constexpr uint64_t kBurst = 3;
  std::atomic<uint64_t> issued{0};
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t seq = 0;
      auto request = [&](size_t doc) {
        issued.fetch_add(1);
        dsp::Request req;
        req.doc_id = docs[doc % docs.size()];
        req.known_rules_version = (t << 32) | ++seq;
        return req;
      };
      for (uint64_t round = 0; round < kRounds; ++round) {
        // Every third round a burst of submissions precedes the
        // synchronous call, on documents it may still be queued on: the
        // call must run after them. The other rounds' calls often find
        // their lane idle and run inline, racing the workers' bursts.
        std::vector<std::future<Result<dsp::Response>>> burst;
        if ((t + round) % 3 == 0) {
          for (uint64_t j = 0; j < kBurst; ++j) {
            burst.push_back(dispatcher.Submit(request(t + round + j)));
          }
        }
        EXPECT_TRUE(dispatcher.Execute(request(t + round)).ok());
        for (auto& f : burst) EXPECT_TRUE(f.get().ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(backend.overlaps(), 0u);
  EXPECT_EQ(backend.reorders(), 0u);
  EXPECT_EQ(dispatcher.executed(), issued.load());
}

// Backend whose requests flagged with known_rules_version == kGated block
// until the test opens the gate, and whose kThrow requests throw.
class GatedService : public dsp::Service {
 public:
  static constexpr uint64_t kGated = 1;
  static constexpr uint64_t kThrow = 2;
  static constexpr uint64_t kFail = 3;

  Result<dsp::Response> Execute(dsp::Request request) override {
    executed_.fetch_add(1);
    switch (request.known_rules_version) {
      case kGated:
        entered_.set_value();
        gate_.wait();
        break;
      case kThrow:
        throw std::runtime_error("backend failure");
      case kFail:
        return Status::IoError("backend unavailable");
      default:
        break;
    }
    std::lock_guard lock(mu_);
    order_.push_back(request.known_rules_version);
    return dsp::Response{};
  }
  dsp::ServiceStats stats() const override { return {}; }

  void WaitEntered() { entered_future_.wait(); }
  void Open() { open_.set_value(); }
  uint64_t executed() const { return executed_.load(); }
  std::vector<uint64_t> order() {
    std::lock_guard lock(mu_);
    return order_;
  }

 private:
  std::promise<void> entered_;
  std::shared_future<void> entered_future_ = entered_.get_future().share();
  std::promise<void> open_;
  std::shared_future<void> gate_ = open_.get_future().share();
  std::atomic<uint64_t> executed_{0};
  std::mutex mu_;
  std::vector<uint64_t> order_;
};

dsp::Request GatedRequest(uint64_t tag) {
  dsp::Request req;
  req.doc_id = "doc";
  req.known_rules_version = tag;
  return req;
}

TEST(ConcurrencyTest, AsyncDispatcherDrainsQueueBuiltBehindInlineCall) {
  constexpr uint64_t kQueued = 16;
  GatedService backend;
  std::vector<std::future<Result<dsp::Response>>> futures;
  {
    dsp::AsyncDispatcher::Options opt;
    opt.workers = 1;
    dsp::AsyncDispatcher dispatcher(&backend, opt);
    std::thread caller([&] {
      EXPECT_TRUE(dispatcher.Execute(GatedRequest(GatedService::kGated)).ok());
    });
    backend.WaitEntered();  // the inline call now holds the lane
    for (uint64_t i = 0; i < kQueued; ++i) {
      futures.push_back(dispatcher.Submit(GatedRequest(100 + i)));
    }
    // The worker must not start a queued job while the lane is running.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(backend.executed(), 1u);
    backend.Open();
    caller.join();
  }  // destruction drains whatever is still queued

  ASSERT_EQ(futures.size(), kQueued);
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_TRUE(f.get().ok());
  }
  std::vector<uint64_t> order = backend.order();
  ASSERT_EQ(order.size(), kQueued + 1);
  for (uint64_t i = 0; i <= kQueued; ++i) {
    EXPECT_EQ(order[i], i == 0 ? GatedService::kGated : 100 + i - 1);
  }
}

TEST(ConcurrencyTest, AsyncDispatcherInlineCallReleasesLaneOnEveryExit) {
  GatedService backend;
  dsp::AsyncDispatcher::Options opt;
  opt.workers = 1;
  dsp::AsyncDispatcher dispatcher(&backend, opt);

  // An error result and a throwing backend both leave the lane free: the
  // next call still runs inline and a submission still reaches the worker.
  EXPECT_EQ(dispatcher.Execute(GatedRequest(GatedService::kFail)).status().code(),
            StatusCode::kIoError);
  EXPECT_THROW(dispatcher.Execute(GatedRequest(GatedService::kThrow)),
               std::runtime_error);
  EXPECT_TRUE(dispatcher.Execute(GatedRequest(10)).ok());
  EXPECT_TRUE(dispatcher.Submit(GatedRequest(11)).get().ok());
  EXPECT_EQ(backend.order(), (std::vector<uint64_t>{10, 11}));
  // The error was served work and charged; the throw never returned.
  EXPECT_EQ(dispatcher.executed(), 3u);
}

// --- Per-query DSP accounting under concurrent sessions ---------------------

TEST(ConcurrencyTest, TerminalDspCountsArePerQueryUnderConcurrentSessions) {
  // The load harness's serving stack over a three-replica group: reads
  // round-robin across replicas, and every session shares every layer.
  dsp::DspServer r0, r1, r2;
  dsp::ReplicatedService replicated({&r0, &r1, &r2});
  dsp::AsyncDispatcher::Options dopt;
  dopt.workers = 2;
  dsp::AsyncDispatcher dispatcher(&replicated, dopt);
  dsp::CachingClient cached(&dispatcher);
  dsp::RetryingClient client(&cached);
  pki::KeyRegistry registry;
  proxy::Publisher publisher(&client, &registry, 21);

  const std::vector<std::string> docs = {"ward0", "ward1", "ward2", "ward3"};
  const std::vector<std::string> queries = {"", "//patient/admin"};
  for (size_t d = 0; d < docs.size(); ++d) {
    xml::GeneratorParams gp;
    gp.profile = xml::DocProfile::kHospital;
    gp.target_elements = 120 + 40 * d;
    gp.seed = 30 + d;
    proxy::PublishOptions popt;
    popt.chunk_size = 128;
    ASSERT_TRUE(publisher
                    .Publish(docs[d], xml::GenerateDocument(gp),
                             "+ u //patient\n- u //patient/ssn\n", popt)
                    .ok());
  }
  auto provisioned = [&] {
    auto terminal = std::make_unique<proxy::Terminal>(
        "u", soe::CardProfile::EGate(), &client, &registry);
    for (const std::string& doc : docs) {
      EXPECT_TRUE(terminal->Provision(doc).ok());
    }
    return terminal;
  };

  // Each (doc, query) alone: one pass to warm the cache, then one on a
  // fresh terminal to record. Every concurrent session runs each (doc,
  // query) once on a fresh terminal too, so both sides are learning runs
  // on the miss window (a second pass on the warming terminal would ride
  // its learned plans instead).
  struct Counts {
    uint64_t round_trips = 0;
    uint64_t bytes = 0;
  };
  std::map<std::pair<size_t, size_t>, Counts> alone;
  for (int pass = 0; pass < 2; ++pass) {
    auto terminal = provisioned();
    for (size_t d = 0; d < docs.size(); ++d) {
      for (size_t q = 0; q < queries.size(); ++q) {
        proxy::QueryOptions qopt;
        qopt.query = queries[q];
        auto result = terminal->Query(docs[d], qopt);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        // One OpenDocument plus the card's chunk trips, every one of
        // them counted wherever the replica group served it.
        EXPECT_EQ(result.value().dsp_round_trips,
                  result.value().card.dsp_round_trips + 1);
        alone[{d, q}] = {result.value().dsp_round_trips,
                         result.value().dsp_bytes_fetched};
      }
    }
  }

  constexpr size_t kSessions = 16;
  std::vector<std::unique_ptr<proxy::Terminal>> terminals;
  for (size_t i = 0; i < kSessions; ++i) terminals.push_back(provisioned());
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> sessions;
  for (size_t i = 0; i < kSessions; ++i) {
    sessions.emplace_back([&, i] {
      for (size_t k = 0; k < queries.size() * 2; ++k) {
        const size_t d = (i + k) % docs.size();
        const size_t q = (i / docs.size() + k) % queries.size();
        proxy::QueryOptions qopt;
        qopt.query = queries[q];
        auto result = terminals[i]->Query(docs[d], qopt);
        if (!result.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const Counts& want = alone.at({d, q});
        if (result.value().dsp_round_trips != want.round_trips ||
            result.value().dsp_bytes_fetched != want.bytes) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : sessions) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
}

// --- Full stack under load ---------------------------------------------------

TEST(ConcurrencyTest, FullStackLoadHarnessCompletesWithZeroFailures) {
  workload::LoadOptions opt;
  opt.sessions = 6;
  opt.ops_per_session = 3;
  opt.shards = 2;
  opt.workers = 2;
  opt.spec.documents = 3;
  opt.spec.doc.elements = 60;
  opt.seed = 42;

  workload::LoadReport report = workload::RunLoad(opt);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_GT(report.queries, 0u);
  EXPECT_GT(report.backend.requests, 0u);
  EXPECT_GT(report.throughput_ops_per_sec, 0.0);
  EXPECT_GT(report.modeled_makespan_seconds, 0.0);
  EXPECT_GE(report.modeled_busy_seconds, report.modeled_makespan_seconds);
  EXPECT_EQ(report.shard_requests.size(), 2u);
  EXPECT_EQ(report.lane_busy_seconds.size(), 2u);
  EXPECT_GT(report.p99_latency_ms, 0.0);
  EXPECT_GE(report.p99_latency_ms, report.p50_latency_ms);
}

}  // namespace
}  // namespace csxa
