#ifndef CSXA_TESTS_TAGGED_CHUNKS_H_
#define CSXA_TESTS_TAGGED_CHUNKS_H_

// A storeless soe::ChunkProvider for fetch-scheduling tests, and the
// one-chunk request the card makes.

#include <span>
#include <vector>

#include "soe/chunk_source.h"

namespace csxa::fakes {

// Chunk i's ciphertext is the single byte i; nothing else is served.
// Counts the batches it answers.
class TaggedChunkProvider : public soe::ChunkProvider {
 public:
  explicit TaggedChunkProvider(uint32_t chunk_count)
      : chunk_count_(chunk_count) {}

  size_t batches = 0;             // batches served
  size_t span_batches = 0;        // of those, batches of several runs
  uint32_t max_end_requested = 0;  // one past the last chunk asked for

 protected:
  Status FetchRuns(std::span<const skipindex::ChunkRun> runs,
                   std::vector<soe::ChunkData>* out) override {
    for (const skipindex::ChunkRun& run : runs) {
      const uint32_t end = run.first + run.count;
      if (end > max_end_requested) max_end_requested = end;
      if (end > chunk_count_) return Status::NotFound("chunk out of range");
    }
    ++batches;
    if (runs.size() > 1) ++span_batches;
    for (const skipindex::ChunkRun& run : runs) {
      for (uint32_t i = run.first; i < run.first + run.count; ++i) {
        soe::ChunkData chunk;
        chunk.SetOwnedCiphertext(Bytes{static_cast<uint8_t>(i)});
        out->push_back(std::move(chunk));
      }
    }
    return Status::OK();
  }

 private:
  uint32_t chunk_count_;
};

// Fetches chunk `index` as a one-chunk batch, as soe::ChunkSource does.
inline Result<soe::ChunkData> FetchOne(soe::ChunkProvider& provider,
                                       uint32_t index) {
  const skipindex::ChunkRun run{index, 1};
  std::vector<soe::ChunkData> out;
  CSXA_RETURN_IF_ERROR(provider.Fetch(std::span(&run, 1), &out));
  return std::move(out[0]);
}

}  // namespace csxa::fakes

#endif  // CSXA_TESTS_TAGGED_CHUNKS_H_
