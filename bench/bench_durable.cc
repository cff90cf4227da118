/// \file bench_durable.cc
/// \brief Durable block store: publish throughput and open-path costs.
///
/// Runs dsp::DurableServer on the real filesystem (PosixEnv, a temp
/// directory, honest fsyncs) and measures what durability costs:
///
///  - publish throughput through the sealed block layer (data blocks +
///    fsync + manifest commit per document), against the in-memory
///    DspServer as the free baseline;
///  - warm open (clean-shutdown marker, lazy verification) vs cold open
///    (crash recovery: eager authentication of every stored block) of the
///    same store — the price of a crash is the cold-open delta;
///  - read path after each open, confirming lazy loads serve identical
///    bytes;
///  - a per-stage split: the block crypto inside those series (sealing and
///    opening as many 4 KB blocks as the store holds, under the store's
///    once-derived cipher context), and the rest — file I/O, fsyncs,
///    manifest commits and container parsing — as the difference.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "crypto/blockseal.h"
#include "dsp/durable.h"
#include "dsp/store.h"

using namespace csxa;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string MakeTempDir() {
  char tmpl[] = "/tmp/csxa-bench-durable-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  CSXA_CHECK(dir != nullptr);
  return dir;
}

}  // namespace

int main() {
  std::printf("== Durable block store: %s ==\n",
              bench::SmokeMode() ? "smoke workload" : "full workload");

  const size_t documents = bench::Smoke(64, 8);
  const size_t payload_bytes = bench::Smoke(20000, 4000);
  const std::string root = MakeTempDir();

  Rng rng(17);
  auto doc_key = crypto::SymmetricKey::Generate(&rng);
  std::vector<Bytes> containers;
  uint64_t published_bytes = 0;
  for (size_t i = 0; i < documents; ++i) {
    containers.push_back(crypto::SecureContainer::Seal(
        doc_key, Bytes(payload_bytes, static_cast<uint8_t>(i)), 512, &rng));
    published_bytes += containers.back().size();
  }
  Bytes rules(64, 0x2A);
  auto doc_id = [](size_t i) { return "doc-" + std::to_string(i); };

  bench::Table table(
      {"series", "docs", "time ms", "docs/s", "MB/s", "note"});

  // --- In-memory publish baseline ----------------------------------------
  double mem_publish_s = 0;
  {
    dsp::DspServer server;
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < documents; ++i) {
      CSXA_CHECK(server.Publish(doc_id(i), containers[i], rules).ok());
    }
    mem_publish_s = SecondsSince(start);
  }

  // --- Durable publish (blocks + fsync + manifest commit per doc) --------
  dsp::DurableOptions options;
  options.directory = root + "/store";
  options.store_id = "bench";
  Rng key_rng(5);
  options.key = crypto::SymmetricKey::Generate(&key_rng);
  double durable_publish_s = 0;
  {
    auto server = std::move(dsp::DurableServer::Open(options)).value();
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < documents; ++i) {
      CSXA_CHECK(server->Publish(doc_id(i), containers[i], rules).ok());
    }
    durable_publish_s = SecondsSince(start);
    CSXA_CHECK(server->Close().ok());
  }

  // --- Warm open: marker present, nothing verified up front ---------------
  double warm_open_s = 0, warm_read_s = 0;
  {
    const auto start = std::chrono::steady_clock::now();
    auto server = std::move(dsp::DurableServer::Open(options)).value();
    warm_open_s = SecondsSince(start);
    CSXA_CHECK(server->recovery().clean_shutdown);
    const auto read_start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < documents; ++i) {  // lazy load pays here
      CSXA_CHECK(server->GetContainer(doc_id(i)).value() == containers[i]);
    }
    warm_read_s = SecondsSince(read_start);
    // Dropped WITHOUT Close(): the next open must take the crash path.
  }

  // --- Cold open: crash recovery, every block authenticated eagerly -------
  double cold_open_s = 0, cold_read_s = 0;
  uint64_t blocks_verified = 0;
  {
    const auto start = std::chrono::steady_clock::now();
    auto server = std::move(dsp::DurableServer::Open(options)).value();
    cold_open_s = SecondsSince(start);
    CSXA_CHECK(!server->recovery().clean_shutdown);
    CSXA_CHECK(server->recovery().quarantined.empty());
    blocks_verified = server->recovery().blocks_verified;
    const auto read_start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < documents; ++i) {  // already resident
      CSXA_CHECK(server->GetContainer(doc_id(i)).value() == containers[i]);
    }
    cold_read_s = SecondsSince(read_start);
    CSXA_CHECK(server->Close().ok());
  }

  // --- Stage split: the block crypto the series above contain ------------
  // Every stored block is sealed once on publish and opened once by a
  // warm read or a cold open; blocks are fixed-size, so sealing full
  // ones prices the partial tail blocks too.
  double seal_s = 0, open_s = 0;
  {
    const crypto::DocCipher cipher = crypto::BlockCipher(options.key);
    crypto::NonceSequence nonces(1);
    const Bytes payload(crypto::kBlockPayloadCapacity, 0x5A);
    std::vector<Bytes> blocks;
    blocks.reserve(blocks_verified);
    auto start = std::chrono::steady_clock::now();
    for (uint64_t b = 0; b < blocks_verified; ++b) {
      blocks.push_back(
          crypto::SealBlock(cipher, options.store_id, b, payload, &nonces));
    }
    seal_s = SecondsSince(start);
    start = std::chrono::steady_clock::now();
    for (uint64_t b = 0; b < blocks_verified; ++b) {
      CSXA_CHECK(
          crypto::OpenBlock(cipher, options.store_id, b, blocks[b]).ok());
    }
    open_s = SecondsSince(start);
  }

  const double mb = static_cast<double>(published_bytes) / 1e6;
  auto add = [&](const std::string& series, double seconds,
                 const std::string& note) {
    const double docs_per_s =
        seconds > 0 ? static_cast<double>(documents) / seconds : 0;
    const double mb_per_s = seconds > 0 ? mb / seconds : 0;
    table.AddRow({series, bench::Fmt("%zu", documents),
                  bench::Fmt("%.2f", seconds * 1e3),
                  bench::Fmt("%.0f", docs_per_s),
                  bench::Fmt("%.1f", mb_per_s), note});
    bench::JsonReport::Get().Add("durable/" + series, seconds * 1e9,
                                 docs_per_s,
                                 static_cast<double>(published_bytes) /
                                     (seconds > 0 ? seconds : 1));
  };
  add("publish_memory", mem_publish_s, "DspServer baseline");
  add("publish_durable", durable_publish_s, "blocks+fsync+manifest");
  add("open_warm", warm_open_s, "marker, lazy verify");
  add("read_after_warm", warm_read_s, "loads on first access");
  add("open_cold", cold_open_s,
      bench::Fmt("recovery, %llu blocks verified",
                 static_cast<unsigned long long>(blocks_verified)));
  add("read_after_cold", cold_read_s, "already resident");
  add("stage/seal_blocks", seal_s, "block crypto inside publish_durable");
  add("stage/publish_rest", durable_publish_s - seal_s,
      "publish_durable minus sealing: I/O, fsync, manifest");
  add("stage/open_blocks", open_s,
      "block crypto inside read_after_warm and open_cold");
  add("stage/read_after_warm_rest", warm_read_s - open_s,
      "read_after_warm minus opening: reads, parse");
  add("stage/open_cold_rest", cold_open_s - open_s,
      "open_cold minus opening: scan, manifest replay");
  const double overhead = mem_publish_s > 0
                              ? durable_publish_s / mem_publish_s
                              : 0;
  bench::JsonReport::Get().AddValue("durable/publish_overhead_x", overhead);
  bench::JsonReport::Get().AddValue("durable/blocks_verified_cold",
                                    static_cast<double>(blocks_verified));

  table.Print();
  std::printf("durable publish costs %.1fx the in-memory baseline; "
              "cold open verifies %llu blocks where warm defers them\n",
              overhead, static_cast<unsigned long long>(blocks_verified));

  // Tidy the temp tree (segments, manifest, directories).
  const std::string cleanup = "rm -rf " + root;
  CSXA_CHECK(std::system(cleanup.c_str()) == 0);
  return 0;
}
