// Durability suite for the disk-backed DSP (`ctest -L durable`;
// scripts/ci.sh also runs it under Thread- and AddressSanitizer).
//
// What is pinned here:
//  - DurableServer round-trips the full Service contract through the
//    sealed block layer and survives close/reopen with versions intact;
//  - the crash-point matrix: for EVERY disk write point of publish,
//    republish, rules-update and remove, killing the "process" at that
//    point and reopening recovers to exactly the pre-op or the post-op
//    state — never a torn in-between, never a lost earlier commit;
//  - torn tails (partial trailing frames from an interrupted append) are
//    truncated silently; interior manifest damage — which no crash can
//    produce — fails the open with kIntegrityError;
//  - at-rest corruption (bit flips, block swaps, cross-store transplants)
//    quarantines exactly the damaged documents with typed errors, every
//    healthy document keeps serving, and republishing heals;
//  - warm opens (clean-shutdown marker present) verify lazily, cold opens
//    eagerly;
//  - the whole decorator stack — retry, cache, dispatcher, replica group,
//    sharding — runs over durable shards through workload::RunLoad under
//    a scripted crash + partition with zero failures and zero stale
//    reads, and the heartbeat cadence ticks on the modeled clock even
//    when nothing ever backs off.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "crypto/blockseal.h"
#include "crypto/container.h"
#include "dsp/blockfile.h"
#include "dsp/durable.h"
#include "dsp/service.h"
#include "workload/load.h"

namespace csxa {
namespace {

Bytes RulesBlobFor(uint64_t version) {
  return Bytes(24, static_cast<uint8_t>(version & 0xFF));
}

Bytes MakeContainer(uint64_t seed, size_t payload_bytes = 600) {
  Rng rng(seed);
  auto key = crypto::SymmetricKey::Generate(&rng);
  return crypto::SecureContainer::Seal(
      key, Bytes(payload_bytes, static_cast<uint8_t>(seed)), 256, &rng);
}

dsp::DurableOptions OptionsOn(dsp::Env* env, const std::string& store_id) {
  dsp::DurableOptions options;
  options.directory = "store";
  options.store_id = store_id;
  Rng rng(42);
  options.key = crypto::SymmetricKey::Generate(&rng);
  options.env = env;
  return options;
}

std::unique_ptr<dsp::DurableServer> MustOpen(dsp::Env* env,
                                             const std::string& id = "t") {
  auto opened = dsp::DurableServer::Open(OptionsOn(env, id));
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).value();
}

// --- Basic durability --------------------------------------------------------

TEST(DurableServerTest, RoundTripSurvivesReopen) {
  dsp::MemEnv env;
  Bytes container_a = MakeContainer(1);
  Bytes container_b = MakeContainer(2, 5000);  // spans several blocks
  {
    auto server = MustOpen(&env);
    ASSERT_TRUE(server->Publish("a", container_a, RulesBlobFor(1)).ok());
    ASSERT_TRUE(server->Publish("b", container_b, RulesBlobFor(1)).ok());
    ASSERT_TRUE(server->UpdateRules("a", RulesBlobFor(2)).ok());
    ASSERT_TRUE(server->Close().ok());
  }
  auto server = MustOpen(&env);
  EXPECT_TRUE(server->recovery().clean_shutdown);
  EXPECT_EQ(server->size(), 2u);

  auto got_b = server->GetContainer("b");
  ASSERT_TRUE(got_b.ok());
  EXPECT_EQ(got_b.value(), container_b);

  auto open_a = server->OpenDocument("a");
  ASSERT_TRUE(open_a.ok());
  EXPECT_EQ(open_a.value().rules_version, 2u);
  EXPECT_EQ(open_a.value().sealed_rules, RulesBlobFor(2));
  // Revalidation against the current version elides the bodies.
  auto reval = server->OpenDocument("a", 2);
  ASSERT_TRUE(reval.ok());
  EXPECT_TRUE(reval.value().not_modified);
}

TEST(DurableServerTest, RemoveTombstoneKeepsRepublishMonotone) {
  dsp::MemEnv env;
  {
    auto server = MustOpen(&env);
    ASSERT_TRUE(server->Publish("a", MakeContainer(1), RulesBlobFor(1)).ok());
    ASSERT_TRUE(server->UpdateRules("a", RulesBlobFor(2)).ok());  // v2
    ASSERT_TRUE(server->Remove("a").ok());
    EXPECT_EQ(server->GetContainer("a").status().code(),
              StatusCode::kNotFound);
  }
  // The tombstone is durable: a republish after reopen must still exceed
  // the removed document's last served version.
  auto server = MustOpen(&env);
  EXPECT_EQ(server->size(), 0u);
  auto open = server->Publish("a", MakeContainer(3), RulesBlobFor(3));
  ASSERT_TRUE(open.ok());
  auto reopened = server->OpenDocument("a");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().rules_version, 3u);  // v2 tombstone + 1
}

TEST(DurableServerTest, MultiSpanGetChunksServesSpansInRequestOrder) {
  // The durable read path (chunk slicing out of sealed blocks) must honor
  // the same multi-span contract as the in-memory store: flattened span
  // order, out-of-order and overlapping spans included, empty spans
  // skipped, any past-EOF span failing the whole request — one request
  // regardless of span count. Real clients only ever sent one span per
  // request before the fetch planner; this pins the many-span path.
  dsp::MemEnv env;
  Rng rng(9);
  auto key = crypto::SymmetricKey::Generate(&rng);
  Bytes payload(2500);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7 & 0xFF);
  }
  Bytes container = crypto::SecureContainer::Seal(key, payload, 256, &rng);
  {
    auto server = MustOpen(&env);
    ASSERT_TRUE(server->Publish("m", container, RulesBlobFor(1)).ok());
    ASSERT_TRUE(server->Close().ok());
  }
  auto server = MustOpen(&env);  // serve from disk, not the publish cache

  std::vector<soe::ChunkData> reference;  // 10 chunks of 256 (last short)
  for (uint32_t i = 0; i < 10; ++i) {
    auto one = server->GetChunks("m", {skipindex::ChunkRun{i, 1}});
    ASSERT_TRUE(one.ok()) << i;
    reference.push_back(std::move(one.value()[0]));
  }

  uint64_t requests_before = server->stats().requests;
  auto got = server->GetChunks(
      "m", {skipindex::ChunkRun{6, 3}, skipindex::ChunkRun{0, 2}, skipindex::ChunkRun{3, 0},
            skipindex::ChunkRun{1, 2}, skipindex::ChunkRun{9, 1}});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(server->stats().requests, requests_before + 1);
  const std::vector<uint32_t> expect = {6, 7, 8, 0, 1, 1, 2, 9};
  ASSERT_EQ(got.value().size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(got.value()[i].ciphertext, reference[expect[i]].ciphertext) << i;
    EXPECT_EQ(got.value()[i].auth.mac, reference[expect[i]].auth.mac) << i;
  }

  EXPECT_FALSE(
      server->GetChunks("m", {skipindex::ChunkRun{0, 1}, skipindex::ChunkRun{9, 2}})
          .ok());
  auto none =
      server->GetChunks("m", {skipindex::ChunkRun{0, 0}, skipindex::ChunkRun{5, 0}});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none.value().empty());
}

// --- The crash-point matrix --------------------------------------------------

// One rig: a durable store on a fault-wrapped in-RAM disk, pre-seeded
// with documents "a" (version 1) and "b".
struct CrashRig {
  dsp::MemEnv mem;
  dsp::FaultyEnv faulty{&mem};
  std::unique_ptr<dsp::DurableServer> server;
  Bytes container_a = MakeContainer(11, 3000);
  Bytes container_b = MakeContainer(12);

  CrashRig() {
    server = MustOpen(&faulty, "rig");
    EXPECT_TRUE(server->Publish("a", container_a, RulesBlobFor(1)).ok());
    EXPECT_TRUE(server->Publish("b", container_b, RulesBlobFor(1)).ok());
  }

  // Simulated reboot: drop the crashed process, revive the disk, reopen.
  dsp::RecoveryReport Reboot() {
    server.reset();
    faulty.Revive();
    server = MustOpen(&faulty, "rig");
    return server->recovery();
  }
};

// Counts the disk write points one `op` makes on a freshly seeded rig.
template <typename OpFn>
uint64_t WritePointsOf(OpFn op) {
  CrashRig rig;
  const uint64_t before = rig.faulty.write_points();
  EXPECT_TRUE(op(rig).ok());
  return rig.faulty.write_points() - before;
}

// Runs `op` with a crash armed at every write point k in [0, W) — with
// and without a torn tail on the dying append — and checks the reopened
// store against `pre_ok` / `post_ok` (exactly one must hold).
template <typename OpFn, typename PreFn, typename PostFn>
void RunCrashMatrix(OpFn op, PreFn pre_ok, PostFn post_ok) {
  const uint64_t write_points = WritePointsOf(op);
  ASSERT_GT(write_points, 0u);
  for (uint64_t k = 0; k < write_points; ++k) {
    for (size_t torn : {size_t{0}, size_t{97}}) {
      SCOPED_TRACE("crash at write point " + std::to_string(k) + ", torn " +
                   std::to_string(torn));
      CrashRig rig;
      rig.faulty.ArmCrash(k, torn);
      EXPECT_FALSE(op(rig).ok());  // the op dies with the disk
      dsp::RecoveryReport report = rig.Reboot();
      EXPECT_TRUE(report.quarantined.empty());
      // Both pre-seeded commits always survive.
      auto got_b = rig.server->GetContainer("b");
      ASSERT_TRUE(got_b.ok());
      EXPECT_EQ(got_b.value(), rig.container_b);
      const bool pre = pre_ok(rig);
      const bool post = post_ok(rig);
      EXPECT_TRUE(pre != post)
          << "recovered to neither (or both of) pre-op and post-op state";
    }
  }
}

TEST(DurableCrashMatrixTest, PublishNewDocument) {
  Bytes container_c = MakeContainer(13, 2500);
  auto op = [&](CrashRig& rig) {
    return rig.server->Publish("c", container_c, RulesBlobFor(1));
  };
  RunCrashMatrix(
      op,
      [&](CrashRig& rig) {
        return rig.server->GetContainer("c").status().code() ==
               StatusCode::kNotFound;
      },
      [&](CrashRig& rig) {
        auto got = rig.server->GetContainer("c");
        return got.ok() && got.value() == container_c;
      });
}

TEST(DurableCrashMatrixTest, RepublishExistingDocument) {
  Bytes container_new = MakeContainer(14, 4500);
  auto op = [&](CrashRig& rig) {
    return rig.server->Publish("a", container_new, RulesBlobFor(2));
  };
  RunCrashMatrix(
      op,
      [&](CrashRig& rig) {
        auto open = rig.server->OpenDocument("a");
        auto got = rig.server->GetContainer("a");
        return open.ok() && open.value().rules_version == 1 && got.ok() &&
               got.value() == rig.container_a;
      },
      [&](CrashRig& rig) {
        auto open = rig.server->OpenDocument("a");
        auto got = rig.server->GetContainer("a");
        return open.ok() && open.value().rules_version == 2 && got.ok() &&
               got.value() == container_new;
      });
}

TEST(DurableCrashMatrixTest, UpdateRules) {
  auto op = [&](CrashRig& rig) {
    return rig.server->UpdateRules("a", RulesBlobFor(2));
  };
  auto with_version = [](CrashRig& rig, uint64_t version) {
    auto open = rig.server->OpenDocument("a");
    return open.ok() && open.value().rules_version == version &&
           open.value().sealed_rules == RulesBlobFor(version);
  };
  RunCrashMatrix(
      op, [&](CrashRig& rig) { return with_version(rig, 1); },
      [&](CrashRig& rig) { return with_version(rig, 2); });
}

TEST(DurableCrashMatrixTest, RemoveDocument) {
  auto op = [&](CrashRig& rig) { return rig.server->Remove("a"); };
  RunCrashMatrix(
      op,
      [&](CrashRig& rig) {
        auto got = rig.server->GetContainer("a");
        return got.ok() && got.value() == rig.container_a;
      },
      [&](CrashRig& rig) {
        return rig.server->GetContainer("a").status().code() ==
               StatusCode::kNotFound;
      });
}

// --- At-rest corruption ------------------------------------------------------

TEST(DurableCorruptionTest, DataBitFlipQuarantinesOnlyTheDamagedDocument) {
  dsp::MemEnv mem;
  Bytes container_a = MakeContainer(21);
  Bytes container_b = MakeContainer(22);
  {
    auto server = MustOpen(&mem);
    ASSERT_TRUE(server->Publish("a", container_a, RulesBlobFor(1)).ok());
    ASSERT_TRUE(server->Publish("b", container_b, RulesBlobFor(1)).ok());
  }
  // Document "a" owns the first blocks of the first segment; flip one bit
  // in its ciphertext while the process is away.
  dsp::DiskFaultPlan plan;
  plan.bit_flips.push_back({"data-000000", 200, 0x10});
  dsp::FaultyEnv faulty(&mem, plan);
  auto server = MustOpen(&faulty);
  ASSERT_EQ(server->recovery().quarantined,
            std::vector<std::string>{"a"});

  auto got_a = server->GetContainer("a");
  EXPECT_EQ(got_a.status().code(), StatusCode::kIntegrityError);
  auto got_b = server->GetContainer("b");
  ASSERT_TRUE(got_b.ok());
  EXPECT_EQ(got_b.value(), container_b);

  // Republishing the id heals the quarantine.
  Bytes container_a2 = MakeContainer(23);
  ASSERT_TRUE(server->Publish("a", container_a2, RulesBlobFor(2)).ok());
  EXPECT_TRUE(server->quarantined().empty());
  auto healed = server->GetContainer("a");
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed.value(), container_a2);
}

TEST(DurableCorruptionTest, BlockSwapIsDetectedAsRelocation) {
  dsp::MemEnv mem;
  {
    auto server = MustOpen(&mem);
    // Two documents, each one block, adjacent in the segment.
    ASSERT_TRUE(server->Publish("a", MakeContainer(31), RulesBlobFor(1)).ok());
    ASSERT_TRUE(server->Publish("b", MakeContainer(32), RulesBlobFor(1)).ok());
  }
  // Swap blocks 0 and 1: both untouched byte-for-byte, both relocated.
  auto file = std::move(mem.Open("store/data-000000.seg", false)).value();
  Bytes block0 = std::move(file->ReadAt(0, crypto::kSealedBlockSize)).value();
  Bytes block1 = std::move(
      file->ReadAt(crypto::kSealedBlockSize, crypto::kSealedBlockSize))
      .value();
  ASSERT_TRUE(file->WriteAt(0, block1).ok());
  ASSERT_TRUE(file->WriteAt(crypto::kSealedBlockSize, block0).ok());

  auto server = MustOpen(&mem);
  EXPECT_EQ(server->recovery().quarantined.size(), 2u);
  EXPECT_EQ(server->GetContainer("a").status().code(),
            StatusCode::kIntegrityError);
  EXPECT_EQ(server->GetContainer("b").status().code(),
            StatusCode::kIntegrityError);
}

TEST(DurableCorruptionTest, CrossStoreTransplantIsDetected) {
  // Two stores under the SAME key but different identities: a block
  // copied between them is authentic bytes in the wrong store.
  dsp::MemEnv mem;
  dsp::DurableOptions opt1 = OptionsOn(&mem, "alpha");
  opt1.directory = "alpha";
  dsp::DurableOptions opt2 = OptionsOn(&mem, "beta");
  opt2.directory = "beta";
  {
    auto s1 = std::move(dsp::DurableServer::Open(opt1)).value();
    auto s2 = std::move(dsp::DurableServer::Open(opt2)).value();
    ASSERT_TRUE(s1->Publish("doc", MakeContainer(41), RulesBlobFor(1)).ok());
    ASSERT_TRUE(s2->Publish("doc", MakeContainer(42), RulesBlobFor(1)).ok());
  }
  auto from = std::move(mem.Open("alpha/data-000000.seg", false)).value();
  auto to = std::move(mem.Open("beta/data-000000.seg", false)).value();
  Bytes block = std::move(from->ReadAt(0, crypto::kSealedBlockSize)).value();
  ASSERT_TRUE(to->WriteAt(0, block).ok());

  auto s2 = std::move(dsp::DurableServer::Open(opt2)).value();
  EXPECT_EQ(s2->recovery().quarantined, std::vector<std::string>{"doc"});
  EXPECT_EQ(s2->GetContainer("doc").status().code(),
            StatusCode::kIntegrityError);
}

TEST(DurableCorruptionTest, InteriorManifestTamperFailsOpen) {
  dsp::MemEnv mem;
  {
    auto server = MustOpen(&mem);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(server
                      ->Publish("doc-" + std::to_string(i),
                                MakeContainer(50 + i), RulesBlobFor(1))
                      .ok());
    }
  }
  // Damage record 1 of 4: valid records follow it, so this cannot be a
  // torn tail — the open must refuse, not silently drop history.
  dsp::DiskFaultPlan plan;
  plan.bit_flips.push_back({"MANIFEST", dsp::kManifestRecordSize + 60, 0x01});
  dsp::FaultyEnv faulty(&mem, plan);
  auto opened = dsp::DurableServer::Open(OptionsOn(&faulty, "t"));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIntegrityError);
}

TEST(DurableCorruptionTest, TrailingManifestDamageIsATornTail) {
  dsp::MemEnv mem;
  Bytes container_a = MakeContainer(61);
  {
    auto server = MustOpen(&mem);
    ASSERT_TRUE(server->Publish("a", container_a, RulesBlobFor(1)).ok());
    ASSERT_TRUE(server->Publish("b", MakeContainer(62), RulesBlobFor(1)).ok());
  }
  // Damage the FINAL record: indistinguishable from a torn commit append,
  // so the store reopens minus that last op.
  dsp::DiskFaultPlan plan;
  plan.bit_flips.push_back({"MANIFEST", dsp::kManifestRecordSize + 60, 0x01});
  dsp::FaultyEnv faulty(&mem, plan);
  auto server = MustOpen(&faulty);
  EXPECT_EQ(server->recovery().torn_tail_records, 1u);
  // ...but NOT silently: a whole trailing frame failing authentication is
  // also what an attacker rolling back the last committed record leaves.
  EXPECT_TRUE(server->recovery().rollback_suspected);
  EXPECT_GT(server->recovery().orphaned_blocks_gced, 0u);  // b's blocks
  EXPECT_EQ(server->GetContainer("b").status().code(), StatusCode::kNotFound);
  auto got_a = server->GetContainer("a");
  ASSERT_TRUE(got_a.ok());
  EXPECT_EQ(got_a.value(), container_a);
}

TEST(DurableCorruptionTest, CommitSeqAnchorDetectsOneRecordRollback) {
  dsp::MemEnv mem;
  uint64_t commit_seq = 0;
  {
    auto server = MustOpen(&mem);
    ASSERT_TRUE(server->Publish("a", MakeContainer(65), RulesBlobFor(1)).ok());
    dsp::Request req;
    req.op = dsp::Op::kPublish;
    req.doc_id = "b";
    req.container = MakeContainer(66);
    req.sealed_rules = RulesBlobFor(1);
    auto last = server->Execute(std::move(req));
    ASSERT_TRUE(last.ok());
    // The durable backend returns its manifest length as a commitment.
    commit_seq = last.value().commit_seq;
    ASSERT_GT(commit_seq, 0u);
  }
  // Honest volume: opening with the anchor succeeds (later opens may have
  // MORE records — the anchor is a floor, not an exact count).
  {
    dsp::DurableOptions options = OptionsOn(&mem, "t");
    options.expected_manifest_records = commit_seq;
    ASSERT_TRUE(dsp::DurableServer::Open(options).ok());
  }
  // Hostile volume: one flipped bit in the LAST committed record reads as
  // a torn crash tail to an unanchored open — but against the publisher's
  // commitment the rollback is detected and the open refuses.
  dsp::DiskFaultPlan plan;
  plan.bit_flips.push_back({"MANIFEST", dsp::kManifestRecordSize + 60, 0x01});
  dsp::FaultyEnv faulty(&mem, plan);
  dsp::DurableOptions options = OptionsOn(&faulty, "t");
  options.expected_manifest_records = commit_seq;
  auto opened = dsp::DurableServer::Open(options);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIntegrityError);
}

TEST(DurableCrashSafetyTest, RecoveredRetryNeverReusesACtrNonce) {
  // The two-time-pad hazard: crash after the data blocks of a publish are
  // durable but before its commit record. Recovery GCs the orphans and the
  // retried publish reuses the SAME block indices for different plaintext
  // — so the sealed bytes (nonce prologue included) must differ from what
  // an attacker imaged off the volume before the crash.
  CrashRig rig;
  const std::string segment = "store/data-000000.seg";
  // Arm the crash on the manifest commit append: data blocks are already
  // fsynced when it fires. Write points of a publish: N block appends,
  // 1 data sync, then the manifest append dies.
  Bytes container_c = MakeContainer(15, 2500);
  auto probe = [&](CrashRig& r) {
    return r.server->Publish("c", container_c, RulesBlobFor(1));
  };
  const uint64_t write_points = WritePointsOf(probe);
  rig.faulty.ArmCrash(write_points - 2);  // the manifest append
  EXPECT_FALSE(probe(rig).ok());

  // Image the orphaned tail before recovery truncates it.
  Bytes pre_image = std::move(rig.mem.Snapshot(segment)).value();
  dsp::RecoveryReport report = rig.Reboot();
  const uint64_t orphan_count = report.orphaned_blocks_gced;
  ASSERT_GT(orphan_count, 0u);
  const uint64_t first_index =
      (pre_image.size() / crypto::kSealedBlockSize) - orphan_count;

  // Retry lands on the same rewound block indices...
  ASSERT_TRUE(probe(rig).ok());
  Bytes post_image = std::move(rig.mem.Snapshot(segment)).value();
  for (uint64_t i = 0; i < orphan_count; ++i) {
    const size_t off = (first_index + i) * crypto::kSealedBlockSize;
    Span pre_nonce(pre_image.data() + off, crypto::kBlockNonceSize);
    Span post_nonce(post_image.data() + off, crypto::kBlockNonceSize);
    // ...under a different nonce epoch: no (key, nonce, index) reuse, no
    // two-time pad for whoever holds both disk images.
    EXPECT_FALSE(pre_nonce == post_nonce)
        << "nonce reused at rewound block index " << (first_index + i);
  }
}

TEST(DurableCorruptionTest, TruncatedSegmentQuarantines) {
  dsp::MemEnv mem;
  Bytes container_b = MakeContainer(72);
  {
    auto server = MustOpen(&mem);
    ASSERT_TRUE(server->Publish("a", MakeContainer(71, 6000),
                                RulesBlobFor(1)).ok());
    ASSERT_TRUE(server->Publish("b", container_b, RulesBlobFor(1)).ok());
    ASSERT_TRUE(server->Close().ok());
  }
  // Cut the data file mid-way: "a"'s extent loses blocks, "b"'s extent
  // (later in the file) vanishes entirely.
  dsp::DiskFaultPlan plan;
  plan.truncates.push_back({"data-000000", crypto::kSealedBlockSize});
  dsp::FaultyEnv faulty(&mem, plan);
  auto server = MustOpen(&faulty);
  // Clean marker present, so the loss surfaces lazily at first access —
  // as a typed integrity error, never a silent partial document.
  EXPECT_TRUE(server->recovery().clean_shutdown);
  EXPECT_EQ(server->GetContainer("a").status().code(),
            StatusCode::kIntegrityError);
  EXPECT_EQ(server->GetContainer("b").status().code(),
            StatusCode::kIntegrityError);
  EXPECT_EQ(server->quarantined().size(), 2u);
}

// --- Warm vs cold open -------------------------------------------------------

TEST(DurableServerTest, CleanShutdownOpensWarmCrashOpensCold) {
  dsp::MemEnv env;
  {
    auto server = MustOpen(&env);
    ASSERT_TRUE(server->Publish("a", MakeContainer(81), RulesBlobFor(1)).ok());
    ASSERT_TRUE(server->Close().ok());
  }
  {
    // Warm: the marker is present, nothing is verified up front.
    auto server = MustOpen(&env);
    EXPECT_TRUE(server->recovery().clean_shutdown);
    EXPECT_EQ(server->recovery().blocks_verified, 0u);
    EXPECT_TRUE(server->OpenDocument("a").ok());  // lazy load on access
    // Dropped WITHOUT Close(): the next open must take the cold path.
  }
  auto server = MustOpen(&env);
  EXPECT_FALSE(server->recovery().clean_shutdown);
  EXPECT_GT(server->recovery().blocks_verified, 0u);
  EXPECT_TRUE(server->recovery().quarantined.empty());
  EXPECT_TRUE(server->OpenDocument("a").ok());
}

// --- The full stack over durable shards --------------------------------------

TEST(DurableStackTest, LoadHarnessRidesOutFaultsOnDurableShards) {
  workload::LoadOptions options;
  options.sessions = 4;
  options.ops_per_session = 8;
  options.shards = 2;
  options.workers = 2;
  options.documents = 3;
  options.elements_per_doc = 60;
  options.replicas = 3;
  options.backend = workload::StoreBackend::kDurable;
  options.seed = 7;
  options.faults.enabled = true;
  options.faults.crash_replica = 1;
  options.faults.crash_at_op = 4;
  options.faults.crash_heal_at_op = 12;
  options.faults.partition_replica = 2;
  options.faults.partition_at_op = 8;
  options.faults.partition_heal_at_op = 20;

  workload::LoadReport report = workload::RunLoad(options);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.stale_reads_served, 0u);
  EXPECT_GE(report.reintegrations, 1u);  // the durable replica caught up
  EXPECT_GT(report.queries, 0u);
  EXPECT_GT(report.heartbeats, 0u);
  EXPECT_GT(report.faults_injected, 0u);
}

TEST(DurableStackTest, HeartbeatsTickOnModeledClockWithoutBackoff) {
  // No faults, no retries, no backoff: under the old backoff-hook pump
  // this run would never heartbeat. The modeled cadence must tick anyway.
  workload::LoadOptions options;
  options.sessions = 2;
  options.ops_per_session = 4;
  options.shards = 1;
  options.workers = 1;
  options.documents = 2;
  options.elements_per_doc = 60;
  options.replicas = 2;
  options.heartbeat_interval_sec = 0.005;
  options.seed = 11;

  workload::LoadReport report = workload::RunLoad(options);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_GT(report.heartbeats, 0u);
}

}  // namespace
}  // namespace csxa
