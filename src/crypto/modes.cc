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

}  // namespace csxa::crypto
