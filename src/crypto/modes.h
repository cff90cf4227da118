#ifndef CSXA_CRYPTO_MODES_H_
#define CSXA_CRYPTO_MODES_H_

/// \file modes.h
/// \brief AES-128 block cipher modes: CTR (streamable) and CBC (PKCS#7).
///
/// Document payloads use CTR so the SOE can decrypt any chunk independently
/// (a requirement for skipping); small records (rules, key envelopes) use
/// CBC with padding.

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/aes.h"

namespace csxa::crypto {

/// 16-byte initialization vector / initial counter block.
using Iv = std::array<uint8_t, kAesBlockSize>;

/// Derives a deterministic counter block for (document nonce, chunk index).
/// The per-chunk IV makes chunk ciphertexts position-bound.
Iv DeriveCtrIv(Span nonce, uint64_t chunk_index);

/// \brief AES-CTR keystream transform (encrypt == decrypt).
///
/// Processes `in` with the keystream starting at counter block `iv`,
/// writing to `out` (may alias). Arbitrary lengths supported. Runs on
/// Aes128::CtrXor: four blocks at a time on AES-NI hosts.
void CtrTransform(const Aes128& aes, const Iv& iv, Span in, Bytes* out);

/// CBC-encrypts `plain` with PKCS#7 padding.
Bytes CbcEncrypt(const Aes128& aes, const Iv& iv, Span plain);

/// CBC-decrypts and strips PKCS#7 padding; fails on bad padding or on a
/// ciphertext that is not a positive multiple of the block size.
Result<Bytes> CbcDecrypt(const Aes128& aes, const Iv& iv, Span cipher);

}  // namespace csxa::crypto

#endif  // CSXA_CRYPTO_MODES_H_
