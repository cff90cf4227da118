#ifndef CSXA_CRYPTO_CONTAINER_H_
#define CSXA_CRYPTO_CONTAINER_H_

/// \file container.h
/// \brief The encrypted, chunked, integrity-protected document container.
///
/// This is the on-DSP format for shared documents (§2.1): the payload is
/// split into fixed-size chunks, each independently encrypted with AES-CTR
/// under a per-chunk derived IV and authenticated by a keyed chunk MAC
/// bound to (nonce, index, chunk size); a root MAC over the header binds
/// the geometry. Both are keyed with the document's MAC sub-key, so an
/// untrusted DSP can neither substitute, reorder, truncate nor modify
/// chunks undetected, while the SOE, which holds the key, can still fetch
/// and verify any subset of chunks at a constant 32 B per chunk — the
/// property the skip index depends on.
///
/// Readers that open many chunks under one key pass a DocCipher (keys.h),
/// derived once per card session or container, to VerifyRoot
/// and VerifyAndDecryptChunk; the SymmetricKey overloads re-derive it on
/// every call and are kept for tests and one-shot callers. Seal and
/// OpenAll derive it once per container.

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/keys.h"
#include "crypto/modes.h"
#include "crypto/sha256.h"

namespace csxa::crypto {

/// Default container chunk size in bytes. Small enough that the modeled
/// 1 KB card RAM can hold a chunk plus working state; see EXP-APDU for the
/// chunk-size sweep.
inline constexpr size_t kDefaultChunkSize = 512;

/// \brief Parsed container header (public, non-secret metadata).
///
/// The wire header also holds a mode byte after the version and a 32-byte
/// field before the root MAC. Both are reserved and must be zero; they
/// stay in the root MAC's input.
struct ContainerHeader {
  uint8_t version = 2;
  std::array<uint8_t, 16> nonce{};
  uint32_t chunk_size = kDefaultChunkSize;
  uint64_t payload_size = 0;
  uint32_t chunk_count = 0;
  Digest root_mac{};

  /// Serialized header size in bytes (fixed).
  static constexpr size_t kWireSize = 4 + 1 + 1 + 16 + 4 + 8 + 4 + 32 + 32;

  void EncodeTo(ByteWriter* out) const;
  /// Fails unless the reserved mode byte and field are zero.
  static Result<ContainerHeader> DecodeFrom(ByteReader* in);
};

/// \brief Authentication material shipped with a fetched chunk: its keyed
/// chunk MAC (ComputeChunkMac), 32 B whatever the container's size.
using ChunkAuth = Digest;

/// \brief Builder/parser for the sealed container format.
class SecureContainer {
 public:
  /// Seals `payload` under `key` into the serialized container format.
  /// `nonce_rng` supplies the fresh document nonce.
  static Bytes Seal(const SymmetricKey& key, Span payload, size_t chunk_size,
                    Rng* nonce_rng);

  /// Parses a serialized container (zero-copy view over `data`).
  static Result<SecureContainer> Parse(Span data);

  const ContainerHeader& header() const { return header_; }
  /// Total serialized size.
  size_t wire_size() const { return data_.size(); }

  /// Ciphertext of chunk `i` (view).
  Result<Span> ChunkCiphertext(uint32_t i) const;
  /// Authentication material for chunk `i` (what the untrusted DSP ships
  /// alongside the ciphertext): its stored chunk MAC.
  Result<ChunkAuth> GetChunkAuth(uint32_t i) const;

  /// Plaintext size of chunk `i` (== chunk_size except possibly the last).
  Result<size_t> ChunkPlainSize(uint32_t i) const;

  /// SOE-side: verifies the root MAC under the document's cipher context.
  /// Must be checked once per document before trusting any chunk
  /// authentication.
  static Status VerifyRoot(const DocCipher& cipher,
                           const ContainerHeader& header);
  static Status VerifyRoot(const SymmetricKey& key,
                           const ContainerHeader& header) {
    return VerifyRoot(DocCipher::For(key), header);
  }

  /// SOE-side: verifies `ciphertext` as chunk `index` against its chunk
  /// MAC (the header must already be root-verified), then decrypts it into
  /// `plain`, resized to the ciphertext's length; `plain` is untouched
  /// when verification fails. This form allocates nothing once `plain`
  /// has the capacity.
  static Status VerifyAndDecryptChunk(const DocCipher& cipher,
                                      const ContainerHeader& header,
                                      uint32_t index, Span ciphertext,
                                      const ChunkAuth& auth, Bytes* plain);
  static Result<Bytes> VerifyAndDecryptChunk(const DocCipher& cipher,
                                             const ContainerHeader& header,
                                             uint32_t index, Span ciphertext,
                                             const ChunkAuth& auth);
  static Result<Bytes> VerifyAndDecryptChunk(const SymmetricKey& key,
                                             const ContainerHeader& header,
                                             uint32_t index, Span ciphertext,
                                             const ChunkAuth& auth) {
    return VerifyAndDecryptChunk(DocCipher::For(key), header, index,
                                 ciphertext, auth);
  }

  /// Convenience: seals then fully opens; used by tests and baselines.
  static Result<Bytes> OpenAll(const SymmetricKey& key, Span container);

  /// Computes the MAC binding the root to the container geometry.
  static Digest ComputeRootMac(const HmacKey& mac, const ContainerHeader& h);

  /// Keyed per-chunk MAC: HMAC(mac_key, u32(5) || "chunk" || nonce ||
  /// index || chunk_size || ciphertext). The fixed 33-byte prefix is built
  /// on the stack and the ciphertext streamed into the hasher: no copy,
  /// no allocation.
  static Digest ComputeChunkMac(const HmacKey& mac, const ContainerHeader& h,
                                uint32_t index, Span ciphertext);

 private:
  ContainerHeader header_;
  Span data_;              // whole serialized container
  size_t auth_off_ = 0;    // offset of the chunk-MAC table
  size_t chunks_off_ = 0;  // offset of first chunk ciphertext
};

}  // namespace csxa::crypto

#endif  // CSXA_CRYPTO_CONTAINER_H_
