#ifndef CSXA_CRYPTO_MODES_H_
#define CSXA_CRYPTO_MODES_H_

/// \file modes.h
/// \brief AES-128 in CTR mode (streamable).
///
/// Document payloads use CTR so the SOE can decrypt any chunk independently
/// (a requirement for skipping); the rule envelope's records
/// (core/rule_envelope.h) use it too.

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

}  // namespace csxa::crypto

#endif  // CSXA_CRYPTO_MODES_H_
