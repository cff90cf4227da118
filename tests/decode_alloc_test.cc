// Pins the decoder's steady-state allocation claim (src/skipindex/README.md):
// once its reused buffers have grown, DocumentDecoder::NextView performs no
// heap allocation on an indexed document — including every OPEN with
// element children, whose subtree tag set lands in the flat tag-set stack.
//
// Allocations are counted by replacing the global operator new
// (alloc_counter.h). The document is a hospital folder repeated twice
// under one root: the first copy is the warm-up (it grows every scratch
// buffer to what the second copy needs), the second copy must decode
// allocation-free. The NextView calls that fetched a chunk are counted
// apart, per fetched chunk: that is the cost of the card's chunk path,
// also nothing.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "alloc_counter.h"
#include "common/random.h"
#include "crypto/container.h"
#include "skipindex/byte_source.h"
#include "skipindex/codec.h"
#include "soe/chunk_source.h"
#include "xml/dom.h"
#include "xml/generator.h"

namespace csxa {
namespace {

Bytes EncodeTwinFolders() {
  xml::GeneratorParams gp;
  gp.profile = xml::DocProfile::kHospital;
  gp.target_elements = 400;
  gp.seed = 19;
  std::string folder = xml::GenerateDocument(gp).Serialize();
  auto doc = xml::DomDocument::Parse("<twin>" + folder + folder + "</twin>");
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return skipindex::EncodeDocument(doc.value(), {}).value();
}

struct SteadyState {
  size_t calls = 0;        // NextView calls counted after the warm-up
  size_t allocations = 0;  // heap allocations during those calls
  // The warm NextView calls for which `fetched()` moved, kept apart.
  uint64_t fetched_chunks = 0;   // chunks they fetched
  size_t fetch_allocations = 0;  // heap allocations during them
};

// Decodes the whole document. Calls after the first folder closes are
// counted; those for which `fetched()` moved count apart, as the cost of
// the transport and the crypto rather than of the decoder.
template <typename FetchCount>
SteadyState DecodeSteadyState(skipindex::ByteSource* source,
                              FetchCount fetched) {
  SteadyState out;
  auto dec = skipindex::DocumentDecoder::Open(source);
  EXPECT_TRUE(dec.ok()) << dec.status().ToString();
  if (!dec.ok()) return out;
  int depth = 0;
  bool warm = false;
  for (;;) {
    uint64_t fetched_before = fetched();
    size_t before = g_allocations;
    g_counting = true;
    auto ev = dec.value()->NextView();
    g_counting = false;
    EXPECT_TRUE(ev.ok()) << ev.status().ToString();
    if (!ev.ok() || ev.value().type == xml::EventType::kEnd) break;
    if (warm && fetched() == fetched_before) {
      ++out.calls;
      out.allocations += g_allocations - before;
    } else if (warm) {
      out.fetched_chunks += fetched() - fetched_before;
      out.fetch_allocations += g_allocations - before;
    }
    if (ev.value().type == xml::EventType::kOpen) ++depth;
    if (ev.value().type == xml::EventType::kClose && --depth == 1) {
      warm = true;  // the first folder is closed
    }
  }
  return out;
}

TEST(DecodeAllocTest, CounterSeesAllocations) {
  g_counting = true;
  size_t before = g_allocations;
  auto p = std::make_unique<int>(7);
  g_counting = false;
  EXPECT_EQ(g_allocations - before, 1u);
  EXPECT_EQ(*p, 7);
}

TEST(DecodeAllocTest, MemorySourceNextViewIsAllocationFree) {
  Bytes encoded = EncodeTwinFolders();
  skipindex::MemorySource source{Span(encoded)};
  SteadyState st = DecodeSteadyState(&source, [] { return uint64_t{0}; });
  EXPECT_GT(st.calls, 800u);
  EXPECT_EQ(st.allocations, 0u) << "over " << st.calls << " NextView calls";
}

// Decodes the twin folders from a container sealed in `chunk`-byte chunks
// through a ChunkSource over a ContainerChunkProvider.
SteadyState DecodeSealed(const Bytes& encoded, size_t chunk) {
  Rng rng(chunk);
  auto key = crypto::SymmetricKey::Generate(&rng);
  Bytes sealed = crypto::SecureContainer::Seal(key, encoded, chunk, &rng);
  auto container = crypto::SecureContainer::Parse(sealed);
  EXPECT_TRUE(container.ok());
  if (!container.ok()) return {};
  soe::ContainerChunkProvider provider(&container.value());
  soe::ChunkSource source(crypto::DocCipher::For(key),
                          container.value().header(), &provider, nullptr);
  return DecodeSteadyState(&source,
                           [&source] { return source.chunks_fetched(); });
}

TEST(DecodeAllocTest, ChunkSourceNextViewIsAllocationFree) {
  Bytes encoded = EncodeTwinFolders();
  for (size_t chunk : {64u, 256u}) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    SteadyState st = DecodeSealed(encoded, chunk);
    EXPECT_GT(st.calls, 400u);
    EXPECT_EQ(st.allocations, 0u) << "over " << st.calls << " NextView calls";
  }
}

// The fetch cost, per fetched chunk: nothing. The served chunk views the
// container's bytes (no ciphertext copy), the one-chunk reply vector is
// reused, verify+decrypt lands in the reused chunk buffer, and a subtree
// bitmap that straddles a chunk edge lands in scratch sized at Open from
// the tag dictionary.
TEST(DecodeAllocTest, ChunkSourceFetchAllocationsPerChunk) {
  struct Pin {
    size_t chunk;
    uint64_t fetched_chunks;
    size_t allocations;
  };
  Bytes encoded = EncodeTwinFolders();
  for (const Pin& pin : {Pin{64, 97, 0}, Pin{256, 24, 0}}) {
    SCOPED_TRACE("chunk=" + std::to_string(pin.chunk));
    SteadyState st = DecodeSealed(encoded, pin.chunk);
    EXPECT_EQ(st.fetched_chunks, pin.fetched_chunks);
    EXPECT_EQ(st.fetch_allocations, pin.allocations);
  }
}

}  // namespace
}  // namespace csxa
