// Pins the decoder's steady-state allocation claim (src/skipindex/README.md):
// once its reused buffers have grown, DocumentDecoder::NextView performs no
// heap allocation on an indexed document — including every OPEN with
// element children, whose subtree tag set lands in the flat tag-set stack.
//
// Allocations are counted by replacing the global operator new. The
// document is a hospital folder repeated twice under one root: the first
// copy is the warm-up (it grows every scratch buffer to what the second
// copy needs), the second copy must decode allocation-free.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "common/random.h"
#include "crypto/container.h"
#include "skipindex/byte_source.h"
#include "skipindex/codec.h"
#include "soe/chunk_source.h"
#include "xml/dom.h"
#include "xml/generator.h"

namespace {
bool g_counting = false;
size_t g_allocations = 0;
}  // namespace

// The replacements pair malloc with free on purpose; GCC's mismatch
// heuristic does not know the pair is replaced as a whole.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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
};

// Decodes the whole document. Calls after the first folder closes are
// counted, except those for which `fetched()` moved: a chunk fetch
// allocates in the transport and the crypto, not in the decoder.
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

TEST(DecodeAllocTest, ChunkSourceNextViewIsAllocationFree) {
  Bytes encoded = EncodeTwinFolders();
  for (size_t chunk : {64u, 256u}) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    Rng rng(chunk);
    auto key = crypto::SymmetricKey::Generate(&rng);
    Bytes sealed = crypto::SecureContainer::Seal(key, encoded, chunk, &rng);
    auto container = crypto::SecureContainer::Parse(sealed);
    ASSERT_TRUE(container.ok());
    soe::ContainerChunkProvider provider(&container.value());
    soe::ChunkSource source(key, container.value().header(), &provider,
                            nullptr);
    SteadyState st = DecodeSteadyState(
        &source, [&source] { return source.chunks_fetched(); });
    EXPECT_GT(st.calls, 400u);
    EXPECT_EQ(st.allocations, 0u) << "over " << st.calls << " NextView calls";
  }
}

}  // namespace
}  // namespace csxa
