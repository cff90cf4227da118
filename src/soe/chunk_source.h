#ifndef CSXA_SOE_CHUNK_SOURCE_H_
#define CSXA_SOE_CHUNK_SOURCE_H_

/// \file chunk_source.h
/// \brief On-demand verify-and-decrypt byte source over a secure container.
///
/// The card holds one chunk of plaintext at a time (RAM!). Reads fetch the
/// containing chunk from the provider (the terminal/DSP side), verify its
/// chunk MAC under the root-MAC-checked header, decrypt, and serve.
/// Skips merely advance the cursor: chunks that are entirely jumped over
/// are neither transferred nor decrypted — the skip index's payoff.
///
/// The provider interface is batch-first: one Fetch() call is one
/// modeled terminal<->server round trip, however many chunk runs it
/// carries. The card itself still consumes one chunk at a time (its RAM
/// budget); batching happens terminal-side in soe::PlannedProvider, which
/// answers per-chunk card requests from one multi-span planned fetch or
/// from fixed-window server fetches.

#include <memory>
#include <span>
#include <vector>

#include "crypto/container.h"
#include "skipindex/byte_source.h"
#include "soe/cost_model.h"

namespace csxa::soe {

/// \brief One chunk as shipped to the card: ciphertext plus its keyed
/// chunk MAC.
///
/// The ciphertext is a view, never a copy. With `owner` set it views the
/// bytes `owner` keeps alive: a DSP reply holds a reference to the stored
/// container, so the chunk stays valid after the document is republished
/// or removed, on whatever thread it lands. With `owner` null it views a
/// container its provider's caller keeps alive for as long as the chunk
/// is used (ContainerChunkProvider).
struct ChunkData {
  Span ciphertext;
  std::shared_ptr<const Bytes> owner;
  crypto::ChunkAuth auth{};

  /// Wire size as transferred to the card.
  size_t WireBytes() const { return ciphertext.size() + auth.size(); }

  /// Makes `bytes` the chunk's own ciphertext (for a provider that hands
  /// out bytes no container holds, such as a mutated copy).
  void SetOwnedCiphertext(Bytes bytes) {
    auto held = std::make_shared<const Bytes>(std::move(bytes));
    ciphertext = Span(*held);
    owner = std::move(held);
  }
};

/// \brief Supplies chunk batches by run (implemented by the proxy/DSP
/// side).
///
/// Each Fetch() call is one modeled round trip to wherever the chunks
/// live. A decorator that answers from chunks it already fetched
/// (soe::PlannedProvider) overrides round_trips() to report its backend's
/// count. Push-mode sessions charge no round trips at all: the card engine
/// ignores the count when the broadcast already arrived.
///
/// Reentrancy contract: one ChunkProvider instance serves one card
/// session on one thread (its round-trip counter and any buffering are
/// unsynchronized). Share the dsp::Service underneath across sessions,
/// never the provider.
class ChunkProvider {
 public:
  virtual ~ChunkProvider() = default;

  /// Appends the chunks of `runs`, concatenated in run order, to `out` in
  /// ONE round trip. The reply comes from an untrusted party, so it fails,
  /// leaving `out` as it was, unless it holds exactly the chunks asked
  /// for; the card then verifies each chunk against its index.
  Status Fetch(std::span<const skipindex::ChunkRun> runs,
               std::vector<ChunkData>* out);

  /// Total wire size of the full stream; used by push mode, where the
  /// broadcast reaches the card whether it decrypts it or not. 0 means
  /// unknown (pull-mode providers need not implement it).
  virtual uint64_t TotalWireBytes() const { return 0; }

  /// Modeled terminal<->server round trips performed so far. Decorators
  /// that answer from local buffers report their backend's count instead.
  virtual uint64_t round_trips() const { return round_trips_; }

 protected:
  /// Backend fetch: appends the chunks of `runs` to `out`.
  virtual Status FetchRuns(std::span<const skipindex::ChunkRun> runs,
                           std::vector<ChunkData>* out) = 0;

 private:
  uint64_t round_trips_ = 0;
};

/// Appends the chunks of `runs`, in run order, from `container` to `out`
/// and returns their total wire size. The one span-serving loop: the DSP's
/// kGetChunks and ContainerChunkProvider both serve through it. Chunks
/// view the container's bytes, which `owner` (the buffer `container`
/// parses, or null) keeps alive in each of them.
Result<uint64_t> ServeChunks(const crypto::SecureContainer& container,
                             std::span<const skipindex::ChunkRun> runs,
                             std::vector<ChunkData>* out,
                             const std::shared_ptr<const Bytes>& owner = {});

/// \brief ChunkProvider over a parsed in-memory container.
///
/// Models a remote store front-end (every batch is one round trip) or, in
/// push mode, the broadcast buffer the terminal already received. Its
/// chunks view the container's bytes with no owner: the caller keeps the
/// container alive while they are used.
class ContainerChunkProvider : public ChunkProvider {
 public:
  explicit ContainerChunkProvider(const crypto::SecureContainer* container)
      : container_(container) {}

  uint64_t TotalWireBytes() const override;

 protected:
  Status FetchRuns(std::span<const skipindex::ChunkRun> runs,
                   std::vector<ChunkData>* out) override {
    return ServeChunks(*container_, runs, out).status();
  }

 private:
  const crypto::SecureContainer* container_;
};

/// \brief ByteSource over the container payload with lazy chunk fetching.
///
/// Its byte window is the rest of the current decrypted chunk, so the
/// decoder reads tokens and varints, and borrows text, straight out of the
/// chunk buffer and calls back into the source only at a chunk edge. A
/// new chunk replaces the buffer, which is what ends a borrow.
class ChunkSource : public skipindex::ByteSource {
 public:
  /// `header` must already be root-verified under `cipher` by the caller,
  /// which derived the cipher context once for the whole session. With
  /// `charge_transfer` false (push mode) fetches charge only crypto: the
  /// broadcast bytes were already paid for by the caller.
  ChunkSource(const crypto::DocCipher& cipher,
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
  std::vector<ChunkData> fetched_;  // reused one-chunk fetch reply
  uint64_t chunks_fetched_ = 0;
};

}  // namespace csxa::soe

#endif  // CSXA_SOE_CHUNK_SOURCE_H_
