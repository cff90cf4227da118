#include "crypto/container.h"

#include <cstring>

namespace csxa::crypto {

namespace {
constexpr uint8_t kMagic[4] = {'C', 'S', 'X', 'A'};
// The header's reserved 32-byte field, all zero.
constexpr uint8_t kReservedField[kSha256Size] = {};

void StoreU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

void StoreU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

}  // namespace

void ContainerHeader::EncodeTo(ByteWriter* out) const {
  out->PutBytes(Span(kMagic, 4));
  out->PutU8(version);
  out->PutU8(0);  // reserved mode byte
  out->PutBytes(Span(nonce.data(), nonce.size()));
  out->PutU32(chunk_size);
  out->PutU64(payload_size);
  out->PutU32(chunk_count);
  out->PutBytes(Span(kReservedField, kSha256Size));
  out->PutBytes(Span(root_mac.data(), root_mac.size()));
}

Result<ContainerHeader> ContainerHeader::DecodeFrom(ByteReader* in) {
  Span magic;
  if (!in->GetBytes(4, &magic) || !(magic == Span(kMagic, 4))) {
    return Status::ParseError("container magic mismatch");
  }
  ContainerHeader h;
  uint8_t mode;
  Span nonce, reserved, mac;
  if (!in->GetU8(&h.version) || !in->GetU8(&mode) ||
      !in->GetBytes(16, &nonce) || !in->GetU32(&h.chunk_size) ||
      !in->GetU64(&h.payload_size) || !in->GetU32(&h.chunk_count) ||
      !in->GetBytes(32, &reserved) || !in->GetBytes(32, &mac)) {
    return Status::ParseError("container header truncated");
  }
  if (h.version != 2) return Status::NotSupported("container version");
  if (mode != 0) return Status::ParseError("unknown integrity mode");
  if (h.chunk_size == 0) return Status::ParseError("container chunk size zero");
  if (!(reserved == Span(kReservedField, kSha256Size))) {
    return Status::ParseError("container reserved field not zero");
  }
  std::memcpy(h.nonce.data(), nonce.data(), 16);
  std::memcpy(h.root_mac.data(), mac.data(), 32);
  return h;
}

Digest SecureContainer::ComputeRootMac(const HmacKey& mac,
                                       const ContainerHeader& h) {
  // reserved mode byte and field (zero) || nonce || payload_size ||
  // chunk_size || chunk_count, on the stack.
  uint8_t in[1 + 32 + 16 + 8 + 4 + 4] = {};
  std::memcpy(in + 33, h.nonce.data(), 16);
  StoreU64(in + 49, h.payload_size);
  StoreU32(in + 57, h.chunk_size);
  StoreU32(in + 61, h.chunk_count);
  return mac.Mac(Span(in, sizeof(in)));
}

Digest SecureContainer::ComputeChunkMac(const HmacKey& mac,
                                        const ContainerHeader& h,
                                        uint32_t index, Span ciphertext) {
  // u32 length || "chunk" || nonce || index || chunk_size, on the stack.
  uint8_t prefix[4 + 5 + 16 + 4 + 4];
  StoreU32(prefix, 5);
  std::memcpy(prefix + 4, "chunk", 5);
  std::memcpy(prefix + 9, h.nonce.data(), h.nonce.size());
  StoreU32(prefix + 25, index);
  StoreU32(prefix + 29, h.chunk_size);
  Sha256 hasher = mac.Begin();
  hasher.Update(Span(prefix, sizeof(prefix)));
  hasher.Update(ciphertext);
  return mac.Finish(hasher);
}

Bytes SecureContainer::Seal(const SymmetricKey& key, Span payload,
                            size_t chunk_size, Rng* nonce_rng) {
  if (chunk_size == 0) chunk_size = kDefaultChunkSize;
  ContainerHeader h;
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

  // One buffer, sized once: header, chunk-MAC table, then the
  // ciphertexts, each encrypted straight into its place and MACed there.
  const size_t auth_off = ContainerHeader::kWireSize;
  const size_t chunks_off =
      auth_off + static_cast<size_t>(h.chunk_count) * kSha256Size;
  Bytes out(chunks_off + payload.size());
  for (uint32_t i = 0; i < h.chunk_count; ++i) {
    Span plain = payload.subspan(size_t{i} * chunk_size, chunk_size);
    uint8_t* ciphertext = out.data() + chunks_off + size_t{i} * chunk_size;
    cipher.enc.CtrXor(DeriveCtrIv(nonce, i).data(), plain.data(), ciphertext,
                      plain.size());
    Digest d =
        ComputeChunkMac(cipher.mac, h, i, Span(ciphertext, plain.size()));
    std::memcpy(out.data() + auth_off + size_t{i} * kSha256Size, d.data(),
                kSha256Size);
  }
  h.root_mac = ComputeRootMac(cipher.mac, h);

  ByteWriter header;
  h.EncodeTo(&header);
  std::memcpy(out.data(), header.bytes().data(), ContainerHeader::kWireSize);
  return out;
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
  std::memcpy(auth.data(), data_.data() + auth_off_ + size_t{i} * kSha256Size,
              kSha256Size);
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

Status SecureContainer::VerifyAndDecryptChunk(const DocCipher& cipher,
                                              const ContainerHeader& header,
                                              uint32_t index, Span ciphertext,
                                              const ChunkAuth& auth,
                                              Bytes* plain) {
  if (index >= header.chunk_count) {
    return Status::InvalidArgument("chunk index out of range");
  }
  Digest expected = ComputeChunkMac(cipher.mac, header, index, ciphertext);
  if (!ConstantTimeEqual(Span(expected.data(), expected.size()),
                         Span(auth.data(), auth.size()))) {
    return Status::IntegrityError("chunk MAC mismatch");
  }
  CtrTransform(cipher.enc,
               DeriveCtrIv(Span(header.nonce.data(), header.nonce.size()), index),
               ciphertext, plain);
  return Status::OK();
}

Result<Bytes> SecureContainer::VerifyAndDecryptChunk(
    const DocCipher& cipher, const ContainerHeader& header, uint32_t index,
    Span ciphertext, const ChunkAuth& auth) {
  Bytes plain;
  CSXA_RETURN_IF_ERROR(
      VerifyAndDecryptChunk(cipher, header, index, ciphertext, auth, &plain));
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

}  // namespace csxa::crypto
