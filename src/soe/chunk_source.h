#ifndef CSXA_SOE_CHUNK_SOURCE_H_
#define CSXA_SOE_CHUNK_SOURCE_H_

/// \file chunk_source.h
/// \brief On-demand verify-and-decrypt byte source over a secure container.
///
/// The card holds one chunk of plaintext at a time (RAM!). Reads fetch the
/// containing chunk from the provider (the terminal/DSP side), verify its
/// Merkle path against the root-MAC-checked header, decrypt, and serve.
/// Skips merely advance the cursor: chunks that are entirely jumped over
/// are neither transferred nor decrypted — the skip index's payoff.
///
/// The provider interface is batch-first: one GetChunks() call is one
/// modeled terminal<->server round trip, however many chunks it carries.
/// The card itself still consumes one chunk at a time (its RAM budget);
/// batching happens terminal-side in soe::PlannedProvider, which answers
/// per-chunk card requests from one multi-span planned fetch or from
/// fixed-window server fetches.

#include <iterator>
#include <memory>
#include <vector>

#include "crypto/container.h"
#include "skipindex/byte_source.h"
#include "soe/cost_model.h"

namespace csxa::soe {

/// \brief One chunk as shipped to the card: ciphertext plus its
/// authentication material (keyed MAC or Merkle path per container mode).
struct ChunkData {
  Bytes ciphertext;
  crypto::ChunkAuth auth;

  /// Wire size as transferred to the card.
  size_t WireBytes(crypto::IntegrityMode mode) const {
    return ciphertext.size() + auth.WireBytes(mode);
  }
};

/// \brief Supplies chunk batches by range (implemented by the proxy/DSP
/// side).
///
/// Each GetChunks() call is one modeled round trip to wherever the chunks
/// live; implementations that serve from memory the terminal already holds
/// (a received broadcast, a fetched plan or window) override round_trips()
/// accordingly.
///
/// Reentrancy contract: one ChunkProvider instance serves one card
/// session on one thread (its round-trip counter and any buffering are
/// unsynchronized). Share the dsp::Service underneath across sessions,
/// never the provider.
class ChunkProvider {
 public:
  virtual ~ChunkProvider() = default;

  /// Fetches the `count` consecutive chunks starting at `first` in one
  /// round trip.
  Result<std::vector<ChunkData>> GetChunks(uint32_t first, uint32_t count) {
    ++round_trips_;
    return FetchChunks(first, count);
  }

  /// Single-chunk convenience: a one-chunk batch (still one round trip).
  Result<ChunkData> GetChunk(uint32_t index) {
    CSXA_ASSIGN_OR_RETURN(std::vector<ChunkData> chunks, GetChunks(index, 1));
    if (chunks.size() != 1) {
      return Status::Internal("provider returned wrong batch size");
    }
    return std::move(chunks[0]);
  }

  /// Fetches several (possibly discontiguous) chunk runs in ONE round
  /// trip, returned concatenated in run order. This is what the fetch
  /// planner uses: a whole query's worth of ranges for one trip's
  /// latency. Backends that speak a multi-span protocol (dsp::Service
  /// kGetChunks) override FetchSpans to send one request; the default
  /// gathers the runs from FetchChunks, which is honest for providers
  /// already serving from local memory.
  Result<std::vector<ChunkData>> GetSpans(
      const std::vector<skipindex::ChunkRun>& spans) {
    ++round_trips_;
    return FetchSpans(spans);
  }

  /// Total wire size of the full stream; used by push mode, where the
  /// broadcast reaches the card whether it decrypts it or not. 0 means
  /// unknown (pull-mode providers need not implement it).
  virtual uint64_t TotalWireBytes() const { return 0; }

  /// Modeled terminal<->server round trips performed so far. Decorators
  /// that answer from local buffers report their backend's count instead.
  virtual uint64_t round_trips() const { return round_trips_; }

 protected:
  /// Backend fetch of the batch [first, first+count).
  virtual Result<std::vector<ChunkData>> FetchChunks(uint32_t first,
                                                     uint32_t count) = 0;

  /// Backend fetch of several runs as one exchange. Default: gather each
  /// run via FetchChunks (no extra round trips are counted — GetSpans
  /// already charged the one trip).
  virtual Result<std::vector<ChunkData>> FetchSpans(
      const std::vector<skipindex::ChunkRun>& spans) {
    std::vector<ChunkData> out;
    for (const skipindex::ChunkRun& span : spans) {
      if (span.count == 0) continue;
      CSXA_ASSIGN_OR_RETURN(std::vector<ChunkData> part,
                            FetchChunks(span.first, span.count));
      out.insert(out.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
    }
    return out;
  }

 private:
  uint64_t round_trips_ = 0;
};

/// \brief ChunkProvider over a parsed in-memory container.
///
/// Models either a remote store front-end (default: every batch is one
/// round trip) or a broadcast buffer the terminal already received
/// (`counts_round_trips = false`, push mode: the stream arrived whether
/// the card wanted it or not).
class ContainerChunkProvider : public ChunkProvider {
 public:
  explicit ContainerChunkProvider(const crypto::SecureContainer* container,
                                  bool counts_round_trips = true)
      : container_(container), counts_round_trips_(counts_round_trips) {}

  uint64_t TotalWireBytes() const override;
  uint64_t round_trips() const override {
    return counts_round_trips_ ? ChunkProvider::round_trips() : 0;
  }

 protected:
  Result<std::vector<ChunkData>> FetchChunks(uint32_t first,
                                             uint32_t count) override;

 private:
  const crypto::SecureContainer* container_;
  bool counts_round_trips_;
};

/// \brief ByteSource over the container payload with lazy chunk fetching.
///
/// Its byte window is the rest of the current decrypted chunk, so the
/// decoder reads tokens and varints, and borrows text, straight out of the
/// chunk buffer and calls back into the source only at a chunk edge. A
/// new chunk replaces the buffer, which is what ends a borrow.
class ChunkSource : public skipindex::ByteSource {
 public:
  /// `header` must already be root-verified under `key` by the caller.
  /// The key's cipher context is derived once here, for the whole session.
  /// With `charge_transfer` false (push mode) fetches charge only crypto:
  /// the broadcast bytes were already paid for by the caller.
  ChunkSource(const crypto::SymmetricKey& key,
              const crypto::ContainerHeader& header, ChunkProvider* provider,
              CostModel* cost, bool charge_transfer = true);

  Status ReadExact(uint8_t* buf, size_t n) override;
  Status Skip(uint64_t n) override;
  uint64_t position() const override {
    return win_pos_ + static_cast<uint64_t>(window() - win_origin_);
  }
  bool AtEnd() const override { return position() >= header_.payload_size; }

  /// Chunks actually fetched (transferred + decrypted).
  uint64_t chunks_fetched() const { return chunks_fetched_; }
  /// Chunks never touched thanks to skips.
  uint64_t chunks_avoided() const;

  /// Modeled RAM held by the source (current chunk buffer).
  size_t ModeledBytes() const { return buf_.size(); }

 private:
  Status EnsureChunk(uint32_t index);
  // Makes the window the rest of the chunk holding the cursor, fetching
  // that chunk if needed; the cursor must be inside the payload.
  Status LoadWindow();

  crypto::DocCipher cipher_;
  crypto::ContainerHeader header_;
  ChunkProvider* provider_;
  CostModel* cost_;
  bool charge_transfer_;

  // The cursor is win_pos_ plus the window bytes consumed since
  // win_origin_, the window start SetWindow was given.
  uint64_t win_pos_ = 0;
  const uint8_t* win_origin_ = nullptr;
  uint32_t buf_index_ = 0;
  bool buf_valid_ = false;
  Bytes buf_;  // plaintext of chunk buf_index_
  uint64_t chunks_fetched_ = 0;
};

}  // namespace csxa::soe

#endif  // CSXA_SOE_CHUNK_SOURCE_H_
