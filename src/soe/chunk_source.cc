#include "soe/chunk_source.h"

namespace csxa::soe {

Result<std::vector<ChunkData>> ContainerChunkProvider::FetchChunks(
    uint32_t first, uint32_t count) {
  std::vector<ChunkData> chunks;
  chunks.reserve(count);
  for (uint32_t i = first; i < first + count; ++i) {
    ChunkData chunk;
    CSXA_ASSIGN_OR_RETURN(Span cipher, container_->ChunkCiphertext(i));
    chunk.ciphertext = cipher.ToBytes();
    CSXA_ASSIGN_OR_RETURN(chunk.auth, container_->GetChunkAuth(i));
    chunks.push_back(std::move(chunk));
  }
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

Status ChunkSource::ReadExact(uint8_t* buf, size_t n) {
  while (n > 0) {
    if (pos_ >= header_.payload_size) {
      return Status::IoError("read past end of container payload");
    }
    uint32_t chunk = static_cast<uint32_t>(pos_ / header_.chunk_size);
    CSXA_RETURN_IF_ERROR(EnsureChunk(chunk));
    size_t off = static_cast<size_t>(pos_ % header_.chunk_size);
    size_t avail = buf_.size() - off;
    size_t take = avail < n ? avail : n;
    std::memcpy(buf, buf_.data() + off, take);
    buf += take;
    n -= take;
    pos_ += take;
  }
  return Status::OK();
}

const uint8_t* ChunkSource::View(size_t n) {
  if (n == 0 || header_.payload_size - pos_ < n) return nullptr;
  uint32_t first = static_cast<uint32_t>(pos_ / header_.chunk_size);
  uint32_t last = static_cast<uint32_t>((pos_ + n - 1) / header_.chunk_size);
  if (first != last) return nullptr;  // crosses chunks: caller copies
  if (!EnsureChunk(first).ok()) {
    return nullptr;  // fall back to ReadExact, which surfaces the error
  }
  size_t off = static_cast<size_t>(pos_ % header_.chunk_size);
  pos_ += n;
  return buf_.data() + off;
}

Status ChunkSource::Skip(uint64_t n) {
  if (header_.payload_size - pos_ < n) {
    return Status::IoError("skip past end of container payload");
  }
  pos_ += n;
  return Status::OK();
}

uint64_t ChunkSource::chunks_avoided() const {
  return header_.chunk_count > chunks_fetched_
             ? header_.chunk_count - chunks_fetched_
             : 0;
}

}  // namespace csxa::soe
