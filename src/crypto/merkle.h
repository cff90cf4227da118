#ifndef CSXA_CRYPTO_MERKLE_H_
#define CSXA_CRYPTO_MERKLE_H_

/// \file merkle.h
/// \brief Merkle hash tree for random-access integrity verification.
///
/// The paper requires that "substituting or modifying encrypted blocks" is
/// detected by the SOE (§2.1), *and* that the SOE can skip forbidden
/// subtrees without reading them (§2.3). A linear MAC chain would force a
/// full read; a Merkle tree lets the SOE verify any chunk it does read with
/// a logarithmic authentication path while holding only the 32-byte root
/// in secure memory.

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/sha256.h"

namespace csxa::crypto {

/// \brief Merkle tree built over a sequence of leaf digests.
///
/// Leaves are hashed with a 0x00 domain-separation prefix and interior
/// nodes with 0x01, preventing second-preimage splicing attacks. Odd nodes
/// are promoted unchanged (Bitcoin-style duplication is deliberately
/// avoided to keep proofs canonical).
class MerkleTree {
 public:
  /// Builds the tree over `leaf_data[i]` payloads (each hashed internally).
  static MerkleTree Build(const std::vector<Bytes>& leaf_data);
  /// Builds the tree over precomputed leaf digests.
  static MerkleTree BuildFromDigests(std::vector<Digest> leaves);

  /// The root digest; all-zero for an empty tree.
  const Digest& root() const { return root_; }
  /// Number of leaves.
  size_t leaf_count() const { return leaf_count_; }

  /// Authentication path for leaf `index`: sibling digests bottom-up,
  /// each tagged with whether the sibling is on the left.
  struct ProofNode {
    Digest sibling;
    bool sibling_is_left;
  };
  /// Extracts the proof for a leaf. Returns InvalidArgument on bad index.
  Result<std::vector<ProofNode>> Prove(size_t index) const;

  /// Verifies that `leaf_payload` at `index` is consistent with `root`.
  static bool Verify(const Digest& root, size_t index, size_t leaf_count,
                     Span leaf_payload, const std::vector<ProofNode>& proof);
  /// The same, from the leaf's digest (HashLeaf of its payload), for a
  /// caller that streams the payload into the hasher itself.
  static bool VerifyLeafDigest(const Digest& root, size_t index,
                               size_t leaf_count, const Digest& leaf,
                               const std::vector<ProofNode>& proof);

  /// Domain-separated leaf digest: SHA-256(0x00 || payload).
  static Digest HashLeaf(Span payload);
  /// Domain-separated interior digest: SHA-256(0x01 || left || right).
  static Digest HashInterior(const Digest& left, const Digest& right);

  /// Serializes a proof (u16 count, then 33 bytes per node).
  static void EncodeProof(const std::vector<ProofNode>& proof, ByteWriter* out);
  /// Parses a proof serialized by EncodeProof.
  static Result<std::vector<ProofNode>> DecodeProof(ByteReader* in);

 private:
  // levels_[0] = leaf digests, levels_.back() = {root}.
  std::vector<std::vector<Digest>> levels_;
  Digest root_{};
  size_t leaf_count_ = 0;
};

}  // namespace csxa::crypto

#endif  // CSXA_CRYPTO_MERKLE_H_
