#ifndef CSXA_CRYPTO_CONTAINER_H_
#define CSXA_CRYPTO_CONTAINER_H_

/// \file container.h
/// \brief The encrypted, chunked, integrity-protected document container.
///
/// This is the on-DSP format for shared documents (§2.1): the payload is
/// split into fixed-size chunks, each independently encrypted with AES-CTR
/// under a per-chunk derived IV, and a Merkle tree is built over
/// (index || ciphertext) leaves. The tree root is authenticated with
/// HMAC-SHA256 under the document's MAC sub-key, so an untrusted DSP can
/// neither substitute, reorder, truncate nor modify chunks undetected,
/// while the SOE can still fetch and verify any subset of chunks — the
/// property the skip index depends on.
///
/// Small records (access rules, key envelopes) use the simpler
/// encrypt-then-MAC record format at the bottom of this header.
///
/// Readers that open many chunks under one key pass a DocCipher (keys.h),
/// derived once per card session or container, to VerifyRoot and
/// VerifyAndDecryptChunk; the SymmetricKey overloads re-derive it on every
/// call and are kept for tests and one-shot callers. Seal and OpenAll
/// derive it once per container.

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/keys.h"
#include "crypto/merkle.h"
#include "crypto/modes.h"

namespace csxa::crypto {

/// Default container chunk size in bytes. Small enough that the modeled
/// 1 KB card RAM can hold a chunk plus working state; see EXP-APDU for the
/// chunk-size sweep.
inline constexpr size_t kDefaultChunkSize = 512;

/// \brief Per-chunk integrity scheme.
///
/// The card holds the document's MAC key, so a keyed per-chunk MAC bound
/// to (nonce, index, geometry) already defeats substitution, reordering,
/// tampering and cross-document splicing at a constant 32 B per chunk —
/// this is the default and matches the paper's cost envelope. The Merkle
/// mode additionally allows *keyless* verification against the
/// authenticated root (useful when proofs must be checkable by parties
/// without the MAC key) at O(log n) proof bytes per fetched chunk; see the
/// EXP-APDU integrity comparison.
enum class IntegrityMode : uint8_t {
  kChunkMac = 0,
  kMerkle = 1,
};

/// \brief Parsed container header (public, non-secret metadata).
struct ContainerHeader {
  uint8_t version = 2;
  IntegrityMode integrity = IntegrityMode::kChunkMac;
  std::array<uint8_t, 16> nonce{};
  uint32_t chunk_size = kDefaultChunkSize;
  uint64_t payload_size = 0;
  uint32_t chunk_count = 0;
  /// Merkle root (kMerkle) or all-zero (kChunkMac).
  Digest merkle_root{};
  Digest root_mac{};

  /// Serialized header size in bytes (fixed).
  static constexpr size_t kWireSize = 4 + 1 + 1 + 16 + 4 + 8 + 4 + 32 + 32;

  void EncodeTo(ByteWriter* out) const;
  static Result<ContainerHeader> DecodeFrom(ByteReader* in);
};

/// \brief Per-chunk authentication material shipped with a fetched chunk.
struct ChunkAuth {
  /// Merkle authentication path (kMerkle mode).
  std::vector<MerkleTree::ProofNode> proof;
  /// Keyed chunk MAC (kChunkMac mode).
  Digest mac{};

  /// Wire size of the authentication material.
  size_t WireBytes(IntegrityMode mode) const {
    return mode == IntegrityMode::kMerkle ? 2 + proof.size() * 33
                                          : kSha256Size;
  }
};

/// \brief Builder/parser for the sealed container format.
class SecureContainer {
 public:
  /// Seals `payload` under `key` into the serialized container format.
  /// `nonce_rng` supplies the fresh document nonce.
  static Bytes Seal(const SymmetricKey& key, Span payload, size_t chunk_size,
                    Rng* nonce_rng,
                    IntegrityMode mode = IntegrityMode::kChunkMac);

  /// Parses a serialized container (zero-copy view over `data`).
  static Result<SecureContainer> Parse(Span data);

  const ContainerHeader& header() const { return header_; }
  /// Total serialized size.
  size_t wire_size() const { return data_.size(); }

  /// Ciphertext of chunk `i` (view).
  Result<Span> ChunkCiphertext(uint32_t i) const;
  /// Authentication material for chunk `i` (what the untrusted DSP ships
  /// alongside the ciphertext): Merkle path or stored chunk MAC.
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

  /// SOE-side: verifies `ciphertext` as chunk `index` per the header's
  /// integrity mode (the header must already be root-verified), then
  /// decrypts it.
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

  /// Leaf payload for the Merkle tree: chunk index || ciphertext.
  static Bytes LeafPayload(uint32_t index, Span ciphertext);

  /// Keyed per-chunk MAC: HMAC(mac_key, "chunk" || nonce || index ||
  /// chunk_size || ciphertext), with the ciphertext streamed into the
  /// hasher rather than copied.
  static Digest ComputeChunkMac(const HmacKey& mac, const ContainerHeader& h,
                                uint32_t index, Span ciphertext);

 private:
  // Merkle mode: the tree over the stored leaf table, built on the first
  // proof request (thread-safe) and shared by copies of this container.
  struct MerkleCache {
    std::once_flag built;
    MerkleTree tree;
  };

  ContainerHeader header_;
  Span data_;              // whole serialized container
  size_t auth_off_ = 0;    // offset of leaf-digest / chunk-MAC table
  size_t chunks_off_ = 0;  // offset of first chunk ciphertext
  std::shared_ptr<MerkleCache> merkle_;  // null in kChunkMac mode
};

/// Seals a small record: CBC(encrypt) then HMAC over (iv || ciphertext).
/// Format: iv(16) || mac(32) || ciphertext.
Bytes SealRecord(const SymmetricKey& key, Span payload, Rng* rng);

/// Opens a sealed record, verifying the MAC before decrypting.
Result<Bytes> OpenRecord(const SymmetricKey& key, Span sealed);

}  // namespace csxa::crypto

#endif  // CSXA_CRYPTO_CONTAINER_H_
