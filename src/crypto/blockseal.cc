#include "crypto/blockseal.h"

#include <cstring>

#include "common/logging.h"
#include "crypto/modes.h"

namespace csxa::crypto {

namespace {

constexpr size_t kNonceSize = kBlockNonceSize;

// The MAC input reproduces everything the reader must trust: a domain
// label, the AAD (store identity and block index — where this block is
// allowed to live), the nonce and the ciphertext. The ciphertext length
// (and with it the block size) is bound implicitly by the HMAC input.
Digest BlockMac(const HmacKey& mac, const std::string& store_id,
                uint64_t block_index, Span nonce, Span ciphertext) {
  ByteWriter w;
  w.PutString("csxa-block-v1");
  w.PutString(store_id);
  w.PutU64(block_index);
  w.PutBytes(nonce);
  Sha256 hasher = mac.Begin();
  hasher.Update(w.bytes());
  hasher.Update(ciphertext);
  return mac.Finish(hasher);
}

}  // namespace

DocCipher BlockCipher(const SymmetricKey& key) {
  return DocCipher{key.Derive("block-enc").EncryptionCipher(),
                   HmacKey(key.MacKey().bytes())};
}

Bytes SealBlock(const DocCipher& cipher, const std::string& store_id,
                uint64_t block_index, Span payload, NonceSequence* nonces,
                size_t block_size) {
  CSXA_CHECK(block_size > kSealedBlockOverhead);
  CSXA_CHECK(payload.size() <= BlockPayloadCapacity(block_size));
  const std::array<uint8_t, kNonceSize> nonce_arr = nonces->Next();
  const Span nonce(nonce_arr.data(), kNonceSize);
  // Layout: nonce || tag || ciphertext. The plaintext — u32 payload
  // length, the payload, zero padding to the fixed block interior — is
  // built and encrypted in place; the length travels inside the sealed
  // envelope so a padded block round-trips exactly.
  Bytes block(block_size, 0);
  std::memcpy(block.data(), nonce.data(), kNonceSize);
  uint8_t* body = block.data() + kNonceSize + kSha256Size;
  const size_t body_size = block_size - kNonceSize - kSha256Size;
  body[0] = static_cast<uint8_t>(payload.size());
  body[1] = static_cast<uint8_t>(payload.size() >> 8);
  body[2] = static_cast<uint8_t>(payload.size() >> 16);
  body[3] = static_cast<uint8_t>(payload.size() >> 24);
  if (!payload.empty()) {
    std::memcpy(body + 4, payload.data(), payload.size());
  }
  Iv iv = DeriveCtrIv(nonce, block_index);
  cipher.enc.CtrXor(iv.data(), body, body, body_size);
  Digest mac = BlockMac(cipher.mac, store_id, block_index, nonce,
                        Span(body, body_size));
  std::memcpy(block.data() + kNonceSize, mac.data(), kSha256Size);
  return block;
}

Result<Bytes> OpenBlock(const DocCipher& cipher, const std::string& store_id,
                        uint64_t block_index, Span block, size_t block_size) {
  if (block.size() != block_size) {
    return Status::IntegrityError(
        "sealed block " + std::to_string(block_index) + ": wrong size " +
        std::to_string(block.size()));
  }
  Span nonce = block.subspan(0, kNonceSize);
  Span tag = block.subspan(kNonceSize, kSha256Size);
  Span body = block.subspan(kNonceSize + kSha256Size);
  Digest mac = BlockMac(cipher.mac, store_id, block_index, nonce, body);
  if (!ConstantTimeEqual(Span(mac.data(), mac.size()), tag)) {
    return Status::IntegrityError(
        "sealed block " + std::to_string(block_index) +
        ": auth tag mismatch (tampered, relocated or foreign block)");
  }
  Iv iv = DeriveCtrIv(nonce, block_index);
  Bytes plain(body.size());
  cipher.enc.CtrXor(iv.data(), body.data(), plain.data(), body.size());
  uint32_t len = static_cast<uint32_t>(plain[0]) |
                 static_cast<uint32_t>(plain[1]) << 8 |
                 static_cast<uint32_t>(plain[2]) << 16 |
                 static_cast<uint32_t>(plain[3]) << 24;
  if (len > BlockPayloadCapacity(block_size)) {
    return Status::IntegrityError("sealed block " +
                                  std::to_string(block_index) +
                                  ": impossible payload length");
  }
  plain.erase(plain.begin(), plain.begin() + 4);
  plain.resize(len);
  return plain;
}

}  // namespace csxa::crypto
