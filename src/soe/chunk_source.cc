#include "soe/chunk_source.h"

#include <algorithm>
#include <cstring>

namespace csxa::soe {

Result<uint64_t> ServeChunks(const crypto::SecureContainer& container,
                             std::span<const skipindex::ChunkRun> runs,
                             std::vector<ChunkData>* out) {
  // Reserve once for the whole batch, bounded by the container so a
  // hostile count cannot force a huge allocation.
  uint64_t wanted = 0;
  for (const skipindex::ChunkRun& run : runs) wanted += run.count;
  out->reserve(out->size() +
               std::min<uint64_t>(wanted, container.header().chunk_count));
  const crypto::IntegrityMode mode = container.header().integrity;
  uint64_t wire_bytes = 0;
  for (const skipindex::ChunkRun& run : runs) {
    for (uint32_t i = 0; i < run.count; ++i) {
      const uint32_t index = run.first + i;
      ChunkData chunk;
      CSXA_ASSIGN_OR_RETURN(Span cipher, container.ChunkCiphertext(index));
      chunk.ciphertext = cipher.ToBytes();
      CSXA_ASSIGN_OR_RETURN(chunk.auth, container.GetChunkAuth(index));
      wire_bytes += chunk.WireBytes(mode);
      out->push_back(std::move(chunk));
    }
  }
  return wire_bytes;
}

Result<std::vector<ChunkData>> ContainerChunkProvider::FetchChunks(
    uint32_t first, uint32_t count) {
  const skipindex::ChunkRun run{first, count};
  std::vector<ChunkData> chunks;
  CSXA_RETURN_IF_ERROR(
      ServeChunks(*container_, std::span(&run, 1), &chunks).status());
  return chunks;
}

uint64_t ContainerChunkProvider::TotalWireBytes() const {
  uint64_t total = crypto::ContainerHeader::kWireSize;
  for (uint32_t i = 0; i < container_->header().chunk_count; ++i) {
    auto cipher = container_->ChunkCiphertext(i);
    auto auth = container_->GetChunkAuth(i);
    if (cipher.ok() && auth.ok()) {
      total += cipher.value().size() +
               auth.value().WireBytes(container_->header().integrity);
    }
  }
  return total;
}

ChunkSource::ChunkSource(const crypto::SymmetricKey& key,
                         const crypto::ContainerHeader& header,
                         ChunkProvider* provider, CostModel* cost,
                         bool charge_transfer)
    : cipher_(crypto::DocCipher::For(key)),
      header_(header),
      provider_(provider),
      cost_(cost),
      charge_transfer_(charge_transfer) {}

Status ChunkSource::EnsureChunk(uint32_t index) {
  if (buf_valid_ && buf_index_ == index) return Status::OK();
  CSXA_ASSIGN_OR_RETURN(ChunkData chunk, provider_->GetChunk(index));
  if (cost_ != nullptr) {
    if (charge_transfer_) {
      cost_->AddTransfer(chunk.WireBytes(header_.integrity));
    }
    // MAC mode hashes the ciphertext once; Merkle mode additionally pays
    // one 64-byte compression per proof node.
    cost_->AddHash(chunk.ciphertext.size() + 4 + chunk.auth.proof.size() * 64);
    cost_->AddDecrypt(chunk.ciphertext.size());
  }
  CSXA_ASSIGN_OR_RETURN(
      Bytes plain, crypto::SecureContainer::VerifyAndDecryptChunk(
                       cipher_, header_, index, chunk.ciphertext, chunk.auth));
  buf_ = std::move(plain);
  buf_index_ = index;
  buf_valid_ = true;
  ++chunks_fetched_;
  return Status::OK();
}

Status ChunkSource::LoadWindow() {
  uint64_t pos = position();
  uint32_t chunk = static_cast<uint32_t>(pos / header_.chunk_size);
  CSXA_RETURN_IF_ERROR(EnsureChunk(chunk));
  uint64_t chunk_begin = uint64_t{chunk} * header_.chunk_size;
  size_t off = static_cast<size_t>(pos - chunk_begin);
  // Never expose bytes past the payload, whatever the chunk's length.
  size_t end = static_cast<size_t>(
      std::min<uint64_t>(buf_.size(), header_.payload_size - chunk_begin));
  if (off >= end) return Status::IntegrityError("chunk shorter than header");
  win_pos_ = pos;
  win_origin_ = buf_.data() + off;
  SetWindow(win_origin_, buf_.data() + end);
  return Status::OK();
}

Status ChunkSource::ReadExact(uint8_t* buf, size_t n) {
  while (n > 0) {
    if (window_size() == 0) {
      if (AtEnd()) {
        return Status::IoError("read past end of container payload");
      }
      CSXA_RETURN_IF_ERROR(LoadWindow());
    }
    size_t take = std::min(window_size(), n);
    std::memcpy(buf, window(), take);
    Consume(take);
    buf += take;
    n -= take;
  }
  return Status::OK();
}

Status ChunkSource::Skip(uint64_t n) {
  uint64_t pos = position();
  if (header_.payload_size - pos < n) {
    return Status::IoError("skip past end of container payload");
  }
  if (n <= window_size()) {
    Consume(static_cast<size_t>(n));
  } else {
    // Past the window: park the cursor with no window until the next read.
    win_pos_ = pos + n;
    win_origin_ = nullptr;
    SetWindow(nullptr, nullptr);
  }
  return Status::OK();
}

uint64_t ChunkSource::chunks_avoided() const {
  return header_.chunk_count > chunks_fetched_
             ? header_.chunk_count - chunks_fetched_
             : 0;
}

}  // namespace csxa::soe
