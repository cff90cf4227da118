#include "crypto/modes.h"

#include "crypto/sha256.h"

namespace csxa::crypto {

Iv DeriveCtrIv(Span nonce, uint64_t chunk_index) {
  // IV = first 16 bytes of SHA-256(nonce || chunk_index_le). Hash-derived so
  // distinct chunks never share a counter stream even across re-keys.
  uint8_t index_le[8];
  for (int i = 0; i < 8; ++i) {
    index_le[i] = static_cast<uint8_t>(chunk_index >> (8 * i));
  }
  Sha256 h;
  h.Update(nonce);
  h.Update(Span(index_le, sizeof(index_le)));
  Digest d = h.Finish();
  Iv iv;
  std::memcpy(iv.data(), d.data(), iv.size());
  // Zero the low 4 bytes to leave room for the in-chunk block counter.
  iv[12] = iv[13] = iv[14] = iv[15] = 0;
  return iv;
}

void CtrTransform(const Aes128& aes, const Iv& iv, Span in, Bytes* out) {
  out->resize(in.size());
  aes.CtrXor(iv.data(), in.data(), out->data(), in.size());
}

Bytes CbcEncrypt(const Aes128& aes, const Iv& iv, Span plain) {
  size_t pad = kAesBlockSize - plain.size() % kAesBlockSize;
  Bytes padded = plain.ToBytes();
  padded.insert(padded.end(), pad, static_cast<uint8_t>(pad));
  Bytes out(padded.size());
  uint8_t prev[16];
  std::memcpy(prev, iv.data(), 16);
  for (size_t off = 0; off < padded.size(); off += 16) {
    uint8_t block[16];
    for (int i = 0; i < 16; ++i) block[i] = padded[off + i] ^ prev[i];
    aes.EncryptBlock(block, out.data() + off);
    std::memcpy(prev, out.data() + off, 16);
  }
  return out;
}

Result<Bytes> CbcDecrypt(const Aes128& aes, const Iv& iv, Span cipher) {
  if (cipher.size() == 0 || cipher.size() % kAesBlockSize != 0) {
    return Status::IntegrityError("CBC ciphertext length invalid");
  }
  Bytes out(cipher.size());
  uint8_t prev[16];
  std::memcpy(prev, iv.data(), 16);
  for (size_t off = 0; off < cipher.size(); off += 16) {
    uint8_t block[16];
    aes.DecryptBlock(cipher.data() + off, block);
    for (int i = 0; i < 16; ++i) out[off + i] = block[i] ^ prev[i];
    std::memcpy(prev, cipher.data() + off, 16);
  }
  uint8_t pad = out.back();
  if (pad == 0 || pad > kAesBlockSize || pad > out.size()) {
    return Status::IntegrityError("CBC padding invalid");
  }
  for (size_t i = out.size() - pad; i < out.size(); ++i) {
    if (out[i] != pad) return Status::IntegrityError("CBC padding invalid");
  }
  out.resize(out.size() - pad);
  return out;
}

}  // namespace csxa::crypto
