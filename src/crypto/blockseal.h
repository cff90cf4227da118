#ifndef CSXA_CRYPTO_BLOCKSEAL_H_
#define CSXA_CRYPTO_BLOCKSEAL_H_

/// \file blockseal.h
/// \brief Fixed-size authenticated-encrypted storage blocks with
/// location-binding AAD.
///
/// The durable DSP backend (dsp/durable.h) persists document state on a
/// disk it must assume is as hostile as the DSP itself: the threat model
/// of the paper — tampering, truncation, reordering, substitution — applies
/// byte-for-byte to a stolen or malicious storage volume. Every block
/// written through this layer is therefore sealed independently:
///
///   1. a fresh 16-byte nonce (prologue),
///   2. AES-CTR ciphertext of `u32 payload_len || payload || zero pad`,
///   3. an HMAC-SHA256 tag over the nonce and ciphertext that also binds
///      the *additional authenticated data* `(store_id, block_index)` —
///      not stored in the block, supplied by the reader from context.
///
/// Nonce discipline: CTR mode turns any (key, nonce, block_index) reuse
/// with different plaintext into a two-time pad, and under this threat
/// model the attacker can image the volume at any moment — including
/// bytes a later truncate "removed". Uniqueness is therefore structural,
/// not statistical-per-draw: a NonceSequence emits `epoch || counter`
/// where the 64-bit epoch is drawn fresh from the environment's entropy
/// source at every store open (see Env::RandomBytes in dsp/blockfile.h)
/// and the counter is monotonic within the open. A crash that rewinds
/// block indices (recovery GCs uncommitted tail blocks) can never repeat
/// a nonce, because the retry runs under a new epoch.
///
/// Because the AAD names where the block is supposed to live, a block
/// copied to a different index, a block swapped with its neighbour, or a
/// block transplanted from another store fails authentication even though
/// its bytes are untouched — the disk cannot relocate data, only lose it
/// (which truncation detection catches). Sealed blocks are
/// indistinguishable from random bytes; the key never touches the disk.
///
/// Encrypt-then-MAC with the repo's AES-CTR + HMAC-SHA256 primitives is
/// the same authenticated-encryption contract as the AES-GCM container in
/// the sfs exemplar, built from what the tree already audits.
///
/// A store seals and opens every block under one key, so it derives the
/// cipher context once (BlockCipher) and uses the DocCipher overloads; the
/// SymmetricKey overloads re-derive it per call.

#include <array>
#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"

namespace csxa::crypto {

/// Nonce size of a sealed block.
inline constexpr size_t kBlockNonceSize = 16;

/// \brief Structurally unique nonce stream for one store open.
///
/// Emits `LE64(epoch) || LE64(counter++)`. The caller supplies an epoch
/// that is fresh per open (dsp::DurableServer draws it from the Env's
/// entropy source), so nonces never repeat across crash-recovery cycles
/// even when block indices rewind; the counter makes them unique within
/// the open. Not thread-safe — callers serialize (DurableServer holds its
/// writer mutex across every seal).
class NonceSequence {
 public:
  NonceSequence() = default;
  explicit NonceSequence(uint64_t epoch) : epoch_(epoch) {}

  /// The next never-before-emitted nonce of this sequence.
  std::array<uint8_t, kBlockNonceSize> Next() {
    std::array<uint8_t, kBlockNonceSize> nonce;
    for (size_t i = 0; i < 8; ++i) {
      nonce[i] = static_cast<uint8_t>(epoch_ >> (8 * i));
      nonce[8 + i] = static_cast<uint8_t>(counter_ >> (8 * i));
    }
    ++counter_;
    return nonce;
  }

 private:
  uint64_t epoch_ = 0;
  uint64_t counter_ = 0;
};

/// Sealed data-block size on disk. 4 KB aligns blocks with common page
/// and sector sizes, so a torn write damages at most one block.
inline constexpr size_t kSealedBlockSize = 4096;
/// Per-block overhead: nonce (16) + auth tag (32) + payload length (4).
inline constexpr size_t kSealedBlockOverhead = 16 + kSha256Size + 4;
/// Usable payload bytes in a sealed block of `block_size` total bytes.
constexpr size_t BlockPayloadCapacity(size_t block_size) {
  return block_size - kSealedBlockOverhead;
}
/// Usable payload bytes per default-size sealed block.
inline constexpr size_t kBlockPayloadCapacity =
    BlockPayloadCapacity(kSealedBlockSize);

/// The sealing context of a store key: AES under
/// `key.Derive("block-enc")`'s "enc" sub-key, HMAC under `key.MacKey()`.
DocCipher BlockCipher(const SymmetricKey& key);

/// Seals `payload` (at most BlockPayloadCapacity(block_size) bytes) into
/// one `block_size` block bound to `(store_id, block_index)`. The nonce
/// comes from `nonces` (see NonceSequence: unique across every seal the
/// store ever performs, including crash-recovery retries that rewind
/// block indices). The manifest log uses a smaller block size for its
/// fixed-frame records; data blocks use the 4 KB default.
Bytes SealBlock(const DocCipher& cipher, const std::string& store_id,
                uint64_t block_index, Span payload, NonceSequence* nonces,
                size_t block_size = kSealedBlockSize);
inline Bytes SealBlock(const SymmetricKey& key, const std::string& store_id,
                       uint64_t block_index, Span payload,
                       NonceSequence* nonces,
                       size_t block_size = kSealedBlockSize) {
  return SealBlock(BlockCipher(key), store_id, block_index, payload, nonces,
                   block_size);
}

/// Opens one sealed block, verifying the auth tag under the same
/// `(store_id, block_index)` AAD before any byte is decrypted. Returns
/// the exact original payload, or kIntegrityError on a block that is the
/// wrong size, fails authentication (bit flip, relocation, substitution,
/// cross-store transplant, wrong key), or carries an impossible length.
Result<Bytes> OpenBlock(const DocCipher& cipher, const std::string& store_id,
                        uint64_t block_index, Span block,
                        size_t block_size = kSealedBlockSize);
inline Result<Bytes> OpenBlock(const SymmetricKey& key,
                               const std::string& store_id,
                               uint64_t block_index, Span block,
                               size_t block_size = kSealedBlockSize) {
  return OpenBlock(BlockCipher(key), store_id, block_index, block, block_size);
}

}  // namespace csxa::crypto

#endif  // CSXA_CRYPTO_BLOCKSEAL_H_
