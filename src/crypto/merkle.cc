#include "crypto/merkle.h"

namespace csxa::crypto {

Digest MerkleTree::HashLeaf(Span payload) {
  Sha256 h;
  uint8_t tag = 0x00;
  h.Update(Span(&tag, 1));
  h.Update(payload);
  return h.Finish();
}

Digest MerkleTree::HashInterior(const Digest& left, const Digest& right) {
  Sha256 h;
  uint8_t tag = 0x01;
  h.Update(Span(&tag, 1));
  h.Update(Span(left.data(), left.size()));
  h.Update(Span(right.data(), right.size()));
  return h.Finish();
}

MerkleTree MerkleTree::Build(const std::vector<Bytes>& leaf_data) {
  std::vector<Digest> leaves;
  leaves.reserve(leaf_data.size());
  for (const Bytes& b : leaf_data) leaves.push_back(HashLeaf(b));
  return BuildFromDigests(std::move(leaves));
}

MerkleTree MerkleTree::BuildFromDigests(std::vector<Digest> leaves) {
  MerkleTree t;
  t.leaf_count_ = leaves.size();
  if (leaves.empty()) {
    t.root_.fill(0);
    return t;
  }
  t.levels_.push_back(std::move(leaves));
  while (t.levels_.back().size() > 1) {
    const auto& prev = t.levels_.back();
    std::vector<Digest> next;
    next.reserve((prev.size() + 1) / 2);
    for (size_t i = 0; i + 1 < prev.size(); i += 2) {
      next.push_back(HashInterior(prev[i], prev[i + 1]));
    }
    if (prev.size() % 2 == 1) {
      next.push_back(prev.back());  // promote odd node
    }
    t.levels_.push_back(std::move(next));
  }
  t.root_ = t.levels_.back()[0];
  return t;
}

Result<std::vector<MerkleTree::ProofNode>> MerkleTree::Prove(size_t index) const {
  if (index >= leaf_count_) {
    return Status::InvalidArgument("Merkle proof index out of range");
  }
  std::vector<ProofNode> proof;
  size_t i = index;
  for (size_t level = 0; level + 1 < levels_.size(); ++level) {
    const auto& nodes = levels_[level];
    size_t sibling = (i % 2 == 0) ? i + 1 : i - 1;
    if (sibling < nodes.size()) {
      proof.push_back(ProofNode{nodes[sibling], sibling < i});
    }
    // Odd promoted nodes contribute no sibling at this level.
    i /= 2;
  }
  return proof;
}

bool MerkleTree::Verify(const Digest& root, size_t index, size_t leaf_count,
                        Span leaf_payload, const std::vector<ProofNode>& proof) {
  return VerifyLeafDigest(root, index, leaf_count, HashLeaf(leaf_payload),
                          proof);
}

bool MerkleTree::VerifyLeafDigest(const Digest& root, size_t index,
                                  size_t leaf_count, const Digest& leaf,
                                  const std::vector<ProofNode>& proof) {
  if (index >= leaf_count) return false;
  Digest acc = leaf;
  // Recompute upward, consuming proof nodes exactly where the tree shape
  // demands a sibling; `width` tracks the node count of the current level.
  size_t i = index;
  size_t width = leaf_count;
  size_t p = 0;
  while (width > 1) {
    size_t sibling = (i % 2 == 0) ? i + 1 : i - 1;
    if (sibling < width) {
      if (p >= proof.size()) return false;
      const ProofNode& node = proof[p++];
      acc = node.sibling_is_left ? HashInterior(node.sibling, acc)
                                 : HashInterior(acc, node.sibling);
    }
    i /= 2;
    width = (width + 1) / 2;
  }
  if (p != proof.size()) return false;
  return acc == root;
}

void MerkleTree::EncodeProof(const std::vector<ProofNode>& proof, ByteWriter* out) {
  out->PutU16(static_cast<uint16_t>(proof.size()));
  for (const ProofNode& n : proof) {
    out->PutU8(n.sibling_is_left ? 1 : 0);
    out->PutBytes(Span(n.sibling.data(), n.sibling.size()));
  }
}

Result<std::vector<MerkleTree::ProofNode>> MerkleTree::DecodeProof(ByteReader* in) {
  uint16_t count;
  if (!in->GetU16(&count)) return Status::ParseError("Merkle proof truncated");
  std::vector<ProofNode> proof;
  proof.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    uint8_t left;
    Span digest;
    if (!in->GetU8(&left) || !in->GetBytes(kSha256Size, &digest)) {
      return Status::ParseError("Merkle proof truncated");
    }
    ProofNode n;
    n.sibling_is_left = left != 0;
    std::memcpy(n.sibling.data(), digest.data(), kSha256Size);
    proof.push_back(n);
  }
  return proof;
}

}  // namespace csxa::crypto
