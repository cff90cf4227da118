#include "crypto/container.h"

namespace csxa::crypto {

namespace {
constexpr uint8_t kMagic[4] = {'C', 'S', 'X', 'A'};
}  // namespace

void ContainerHeader::EncodeTo(ByteWriter* out) const {
  out->PutBytes(Span(kMagic, 4));
  out->PutU8(version);
  out->PutU8(static_cast<uint8_t>(integrity));
  out->PutBytes(Span(nonce.data(), nonce.size()));
  out->PutU32(chunk_size);
  out->PutU64(payload_size);
  out->PutU32(chunk_count);
  out->PutBytes(Span(merkle_root.data(), merkle_root.size()));
  out->PutBytes(Span(root_mac.data(), root_mac.size()));
}

Result<ContainerHeader> ContainerHeader::DecodeFrom(ByteReader* in) {
  Span magic;
  if (!in->GetBytes(4, &magic) || !(magic == Span(kMagic, 4))) {
    return Status::ParseError("container magic mismatch");
  }
  ContainerHeader h;
  uint8_t integrity_raw;
  Span nonce, root, mac;
  if (!in->GetU8(&h.version) || !in->GetU8(&integrity_raw) ||
      !in->GetBytes(16, &nonce) || !in->GetU32(&h.chunk_size) ||
      !in->GetU64(&h.payload_size) || !in->GetU32(&h.chunk_count) ||
      !in->GetBytes(32, &root) || !in->GetBytes(32, &mac)) {
    return Status::ParseError("container header truncated");
  }
  if (h.version != 2) return Status::NotSupported("container version");
  if (integrity_raw > 1) return Status::ParseError("unknown integrity mode");
  h.integrity = static_cast<IntegrityMode>(integrity_raw);
  if (h.chunk_size == 0) return Status::ParseError("container chunk size zero");
  std::memcpy(h.nonce.data(), nonce.data(), 16);
  std::memcpy(h.merkle_root.data(), root.data(), 32);
  std::memcpy(h.root_mac.data(), mac.data(), 32);
  return h;
}

Bytes SecureContainer::LeafPayload(uint32_t index, Span ciphertext) {
  ByteWriter w;
  w.PutU32(index);
  w.PutBytes(ciphertext);
  return w.Take();
}

Digest SecureContainer::ComputeRootMac(const HmacKey& mac,
                                       const ContainerHeader& h) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(h.integrity));
  w.PutBytes(Span(h.merkle_root.data(), h.merkle_root.size()));
  w.PutBytes(Span(h.nonce.data(), h.nonce.size()));
  w.PutU64(h.payload_size);
  w.PutU32(h.chunk_size);
  w.PutU32(h.chunk_count);
  return mac.Mac(w.bytes());
}

Digest SecureContainer::ComputeChunkMac(const HmacKey& mac,
                                        const ContainerHeader& h,
                                        uint32_t index, Span ciphertext) {
  ByteWriter w;
  w.PutString("chunk");
  w.PutBytes(Span(h.nonce.data(), h.nonce.size()));
  w.PutU32(index);
  w.PutU32(h.chunk_size);
  Sha256 hasher = mac.Begin();
  hasher.Update(w.bytes());
  hasher.Update(ciphertext);
  return mac.Finish(hasher);
}

Bytes SecureContainer::Seal(const SymmetricKey& key, Span payload,
                            size_t chunk_size, Rng* nonce_rng,
                            IntegrityMode mode) {
  if (chunk_size == 0) chunk_size = kDefaultChunkSize;
  ContainerHeader h;
  h.integrity = mode;
  for (size_t i = 0; i < h.nonce.size(); i += 8) {
    uint64_t v = nonce_rng->Next();
    for (size_t b = 0; b < 8 && i + b < h.nonce.size(); ++b) {
      h.nonce[i + b] = static_cast<uint8_t>(v >> (8 * b));
    }
  }
  h.chunk_size = static_cast<uint32_t>(chunk_size);
  h.payload_size = payload.size();
  h.chunk_count =
      static_cast<uint32_t>((payload.size() + chunk_size - 1) / chunk_size);
  if (payload.size() == 0) h.chunk_count = 0;

  const DocCipher cipher = DocCipher::For(key);
  Span nonce(h.nonce.data(), h.nonce.size());

  std::vector<Bytes> ciphertexts;
  ciphertexts.reserve(h.chunk_count);
  for (uint32_t i = 0; i < h.chunk_count; ++i) {
    size_t off = static_cast<size_t>(i) * chunk_size;
    Span plain = payload.subspan(off, chunk_size);
    Bytes chunk;
    CtrTransform(cipher.enc, DeriveCtrIv(nonce, i), plain, &chunk);
    ciphertexts.push_back(std::move(chunk));
  }

  // Authentication table: Merkle leaf digests or keyed chunk MACs.
  std::vector<Digest> auth_table;
  auth_table.reserve(h.chunk_count);
  if (mode == IntegrityMode::kMerkle) {
    for (uint32_t i = 0; i < h.chunk_count; ++i) {
      auth_table.push_back(
          MerkleTree::HashLeaf(LeafPayload(i, ciphertexts[i])));
    }
    MerkleTree tree = MerkleTree::BuildFromDigests(auth_table);
    h.merkle_root = tree.root();
  } else {
    h.merkle_root.fill(0);
    for (uint32_t i = 0; i < h.chunk_count; ++i) {
      auth_table.push_back(ComputeChunkMac(cipher.mac, h, i, ciphertexts[i]));
    }
  }
  h.root_mac = ComputeRootMac(cipher.mac, h);

  ByteWriter w;
  h.EncodeTo(&w);
  for (const Digest& d : auth_table) w.PutBytes(Span(d.data(), d.size()));
  for (const Bytes& c : ciphertexts) w.PutBytes(c);
  return w.Take();
}

Result<SecureContainer> SecureContainer::Parse(Span data) {
  ByteReader r(data);
  CSXA_ASSIGN_OR_RETURN(ContainerHeader h, ContainerHeader::DecodeFrom(&r));
  SecureContainer c;
  c.header_ = h;
  c.data_ = data;
  c.auth_off_ = r.position();
  size_t auth_bytes = static_cast<size_t>(h.chunk_count) * kSha256Size;
  if (r.remaining() < auth_bytes) {
    return Status::ParseError("container auth table truncated");
  }
  c.chunks_off_ = c.auth_off_ + auth_bytes;
  if (data.size() - c.chunks_off_ != h.payload_size) {
    return Status::ParseError("container payload size mismatch");
  }
  if (h.integrity == IntegrityMode::kMerkle) {
    c.merkle_ = std::make_shared<MerkleCache>();
  }
  return c;
}

Result<size_t> SecureContainer::ChunkPlainSize(uint32_t i) const {
  if (i >= header_.chunk_count) {
    return Status::InvalidArgument("chunk index out of range");
  }
  size_t off = static_cast<size_t>(i) * header_.chunk_size;
  size_t n = header_.payload_size - off;
  if (n > header_.chunk_size) n = header_.chunk_size;
  return n;
}

Result<Span> SecureContainer::ChunkCiphertext(uint32_t i) const {
  CSXA_ASSIGN_OR_RETURN(size_t n, ChunkPlainSize(i));
  size_t off = chunks_off_ + static_cast<size_t>(i) * header_.chunk_size;
  return data_.subspan(off, n);
}

Result<ChunkAuth> SecureContainer::GetChunkAuth(uint32_t i) const {
  if (i >= header_.chunk_count) {
    return Status::InvalidArgument("chunk index out of range");
  }
  ChunkAuth auth;
  if (header_.integrity == IntegrityMode::kMerkle) {
    std::call_once(merkle_->built, [this] {
      std::vector<Digest> leaves(header_.chunk_count);
      for (uint32_t k = 0; k < header_.chunk_count; ++k) {
        std::memcpy(leaves[k].data(),
                    data_.data() + auth_off_ + k * kSha256Size, kSha256Size);
      }
      merkle_->tree = MerkleTree::BuildFromDigests(std::move(leaves));
    });
    CSXA_ASSIGN_OR_RETURN(auth.proof, merkle_->tree.Prove(i));
  } else {
    std::memcpy(auth.mac.data(), data_.data() + auth_off_ + i * kSha256Size,
                kSha256Size);
  }
  return auth;
}

Status SecureContainer::VerifyRoot(const DocCipher& cipher,
                                   const ContainerHeader& header) {
  Digest expected = ComputeRootMac(cipher.mac, header);
  if (!ConstantTimeEqual(Span(expected.data(), expected.size()),
                         Span(header.root_mac.data(),
                              header.root_mac.size()))) {
    return Status::IntegrityError("container root MAC mismatch");
  }
  return Status::OK();
}

Result<Bytes> SecureContainer::VerifyAndDecryptChunk(
    const DocCipher& cipher, const ContainerHeader& header, uint32_t index,
    Span ciphertext, const ChunkAuth& auth) {
  if (index >= header.chunk_count) {
    return Status::InvalidArgument("chunk index out of range");
  }
  if (header.integrity == IntegrityMode::kMerkle) {
    Bytes leaf = LeafPayload(index, ciphertext);
    if (!MerkleTree::Verify(header.merkle_root, index, header.chunk_count,
                            leaf, auth.proof)) {
      return Status::IntegrityError("chunk failed Merkle verification");
    }
  } else {
    Digest expected = ComputeChunkMac(cipher.mac, header, index, ciphertext);
    if (!ConstantTimeEqual(Span(expected.data(), expected.size()),
                           Span(auth.mac.data(), auth.mac.size()))) {
      return Status::IntegrityError("chunk MAC mismatch");
    }
  }
  Bytes plain;
  CtrTransform(cipher.enc,
               DeriveCtrIv(Span(header.nonce.data(), header.nonce.size()), index),
               ciphertext, &plain);
  return plain;
}

Result<Bytes> SecureContainer::OpenAll(const SymmetricKey& key, Span container) {
  CSXA_ASSIGN_OR_RETURN(SecureContainer c, Parse(container));
  const DocCipher cipher = DocCipher::For(key);
  CSXA_RETURN_IF_ERROR(VerifyRoot(cipher, c.header()));
  Bytes out;
  out.reserve(c.header().payload_size);
  for (uint32_t i = 0; i < c.header().chunk_count; ++i) {
    CSXA_ASSIGN_OR_RETURN(Span chunk, c.ChunkCiphertext(i));
    CSXA_ASSIGN_OR_RETURN(ChunkAuth auth, c.GetChunkAuth(i));
    CSXA_ASSIGN_OR_RETURN(
        Bytes plain, VerifyAndDecryptChunk(cipher, c.header(), i, chunk, auth));
    out.insert(out.end(), plain.begin(), plain.end());
  }
  return out;
}

Bytes SealRecord(const SymmetricKey& key, Span payload, Rng* rng) {
  Iv iv;
  for (size_t i = 0; i < iv.size(); i += 8) {
    uint64_t v = rng->Next();
    for (size_t b = 0; b < 8 && i + b < iv.size(); ++b) {
      iv[i + b] = static_cast<uint8_t>(v >> (8 * b));
    }
  }
  Aes128 aes = key.EncryptionCipher();
  Bytes cipher = CbcEncrypt(aes, iv, payload);
  ByteWriter macd;
  macd.PutBytes(Span(iv.data(), iv.size()));
  macd.PutBytes(cipher);
  Digest mac = HmacSha256(key.MacKey().bytes(), macd.bytes());
  ByteWriter w;
  w.PutBytes(Span(iv.data(), iv.size()));
  w.PutBytes(Span(mac.data(), mac.size()));
  w.PutBytes(cipher);
  return w.Take();
}

Result<Bytes> OpenRecord(const SymmetricKey& key, Span sealed) {
  if (sealed.size() < 16 + 32 + kAesBlockSize) {
    return Status::IntegrityError("sealed record too short");
  }
  Span iv_span = sealed.subspan(0, 16);
  Span mac_span = sealed.subspan(16, 32);
  Span cipher = sealed.subspan(48);
  ByteWriter macd;
  macd.PutBytes(iv_span);
  macd.PutBytes(cipher);
  Digest mac = HmacSha256(key.MacKey().bytes(), macd.bytes());
  if (!ConstantTimeEqual(Span(mac.data(), mac.size()), mac_span)) {
    return Status::IntegrityError("record MAC mismatch");
  }
  Iv iv;
  std::memcpy(iv.data(), iv_span.data(), 16);
  Aes128 aes = key.EncryptionCipher();
  return CbcDecrypt(aes, iv, cipher);
}

}  // namespace csxa::crypto
